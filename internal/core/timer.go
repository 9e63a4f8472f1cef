package core

import (
	"dcqcn/internal/eventq"
	"dcqcn/internal/simtime"
)

// Scheduler is the optional, allocation-free half of a Clock: a timer
// armed through it is a value handle, not a cancel closure. A clock over
// an event queue implements it next to After; Timer prefers it.
type Scheduler interface {
	// Schedule runs fn once, d from now, and returns its handle.
	Schedule(d simtime.Duration, fn func()) eventq.Handle
	// Cancel removes the event behind h. A stale or zero handle is a
	// no-op, so a timer may cancel its own firing event.
	Cancel(h eventq.Handle)
}

// Timer is a re-armable one-shot timer slot whose continuation is bound
// once, at NewTimer. On a clock that implements Scheduler, Reset and Stop
// cancel and schedule through an eventq.Handle kept in the slot, so
// re-arming allocates nothing. On any other clock Timer falls back to
// After and keeps its cancel func, one allocation per arm. The engine's
// clock (nic.Clock) and the test clock (simtest.Clock) are Schedulers;
// only the benchmark drills' stub clock, which never fires, takes the
// fallback.
//
// The zero Timer is unusable; embed the value NewTimer returns.
type Timer struct {
	clock  Clock
	sched  Scheduler
	fn     func()
	h      eventq.Handle
	cancel func()
}

// NewTimer binds fn to a timer on clock, resolving once whether the clock
// is a Scheduler.
func NewTimer(clock Clock, fn func()) Timer {
	sched, _ := clock.(Scheduler)
	return Timer{clock: clock, sched: sched, fn: fn}
}

// Reset cancels the pending expiry, if any, and schedules fn d from now.
// The cancel runs before the new schedule, as a hand-written re-arm
// would, so the events scheduled are the same either way.
func (t *Timer) Reset(d simtime.Duration) {
	t.Stop()
	if t.sched != nil {
		t.h = t.sched.Schedule(d, t.fn)
		return
	}
	t.cancel = t.clock.After(d, t.fn)
}

// Stop cancels the pending expiry, if any. Stopping a timer that fired,
// or is firing, is a no-op.
func (t *Timer) Stop() {
	if t.sched != nil {
		t.sched.Cancel(t.h)
		t.h = eventq.Handle{}
		return
	}
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}
