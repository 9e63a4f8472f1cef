package engine

import (
	"strings"
	"testing"

	"dcqcn/internal/simtime"
)

// TestAuditPopPastEvent bypasses At's call-site guard by pushing onto
// the queue directly — modelling a corrupted Event.At — and checks the
// run loop's arrow-of-time audit trips. The push at 15 µs falls between
// the last pop (10 µs) and the clock (20 µs): the queue accepts it, since
// it only rejects times before its last pop, so only the audit catches it.
func TestAuditPopPastEvent(t *testing.T) {
	s := New(1)
	s.At(simtime.Time(10*simtime.Microsecond), func() {})
	s.Run(simtime.Time(20 * simtime.Microsecond)) // clock now past 10 µs
	s.c.queue.Push(simtime.Time(15*simtime.Microsecond), func() {})

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on popping a past event")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "behind clock") {
			t.Fatalf("panic %v, want arrow-of-time violation", r)
		}
	}()
	s.RunAll()
}
