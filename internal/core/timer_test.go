package core

import (
	"testing"

	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

// The test clock implements the handle path production runs.
var _ Scheduler = (*simtest.Clock)(nil)

// afterOnly hides simtest.Clock's Scheduler methods, leaving the bare
// core.Clock a clock without an event queue offers.
type afterOnly struct{ c *simtest.Clock }

func (a afterOnly) Now() simtime.Time { return a.c.Now() }

func (a afterOnly) After(d simtime.Duration, fn func()) func() { return a.c.After(d, fn) }

// TestTimerResetStop drives one timer through re-arm, stop and expiry
// on both the Scheduler path and the After fallback: a Reset replaces
// the pending expiry, Stop cancels it, and stopping a fired timer is a
// no-op.
func TestTimerResetStop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clock func(*simtest.Clock) Clock
	}{
		{"scheduler", func(c *simtest.Clock) Clock { return c }},
		{"after", func(c *simtest.Clock) Clock { return afterOnly{c} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &simtest.Clock{}
			var fired []simtime.Time
			tm := NewTimer(tc.clock(clock), func() { fired = append(fired, clock.Now()) })
			if (tm.sched != nil) != (tc.name == "scheduler") {
				t.Fatalf("Scheduler resolved = %v on the %s clock", tm.sched != nil, tc.name)
			}
			tm.Reset(10 * simtime.Microsecond)
			clock.Advance(5 * simtime.Microsecond)
			tm.Reset(10 * simtime.Microsecond) // replaces the expiry at 10 µs
			if clock.Pending() != 1 {
				t.Fatalf("%d timers pending after a re-arm, want 1", clock.Pending())
			}
			clock.Advance(20 * simtime.Microsecond)
			if len(fired) != 1 || fired[0] != simtime.Time(15*simtime.Microsecond) {
				t.Fatalf("fired at %v, want once at 15µs", fired)
			}
			tm.Stop() // fired already: no-op
			tm.Reset(simtime.Microsecond)
			tm.Stop()
			clock.Advance(simtime.Millisecond)
			if len(fired) != 1 || clock.Pending() != 0 {
				t.Fatalf("stopped timer fired (%v) or left %d pending", fired, clock.Pending())
			}
		})
	}
}
