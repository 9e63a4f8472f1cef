package rocev2

import (
	"fmt"
	"strings"
	"testing"

	"dcqcn/internal/packet"
	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

func auditSender() *Sender {
	s := NewSender(1, packet.FiveTuple{}, DefaultConfig(), &simtest.Clock{}, FixedRate(simtime.Gbps))
	s.PostMessage(10*1000, nil)
	return s
}

func wantPanic(t *testing.T, fragment string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", fragment)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, fragment) {
			t.Fatalf("panic %v, want one containing %q", r, fragment)
		}
	}()
	fn()
}

// TestSenderAuditUnnested corrupts the window pointers directly and
// checks the audit trips: acked ahead of nextPSN can never happen in a
// correct transport.
func TestSenderAuditUnnested(t *testing.T) {
	s := auditSender()
	s.acked = 2 // nextPSN is still 0
	wantPanic(t, "PSN pointers unnested", s.audit)
}

// TestSenderAuditAckRegression corrupts the cumulative ACK point
// backward and checks the monotonicity audit trips.
func TestSenderAuditAckRegression(t *testing.T) {
	s := auditSender()
	for s.CanSend() {
		s.BuildNext()
	}
	s.OnAck(3)
	s.acked = 1 // regress behind the audited high-water mark
	wantPanic(t, "ACK point moved backward", s.audit)
}

// TestReceiverAuditExpectedRegression corrupts the receiver's expected
// PSN backward and checks the audit trips.
func TestReceiverAuditExpectedRegression(t *testing.T) {
	r := NewReceiver(1, packet.FiveTuple{}, DefaultConfig(), func(*packet.Packet) {})
	for psn := int64(0); psn < 4; psn++ {
		r.OnData(packet.NewData(1, packet.FiveTuple{}, psn, 100, false))
	}
	r.expected = 1
	wantPanic(t, "expected PSN moved backward", r.audit)
}
