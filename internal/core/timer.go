package core

import (
	"dcqcn/internal/eventq"
	"dcqcn/internal/simtime"
)

// Scheduler is the optional, allocation-free half of a Clock: a timer
// armed through it is a value handle, not a cancel closure. A clock over
// an event queue implements it next to After; Timer prefers it.
type Scheduler interface {
	// Rearm runs fn once, d from now, superseding the event behind h,
	// and returns the new handle: Cancel(h) and a fresh schedule, with
	// a pending event re-armed in place (eventq's RearmKeyed). Through a
	// stale or zero handle it only schedules.
	Rearm(h eventq.Handle, d simtime.Duration, fn func()) eventq.Handle
	// Cancel removes the event behind h. A stale or zero handle is a
	// no-op, so a timer may cancel its own firing event.
	Cancel(h eventq.Handle)
}

// Timer is a re-armable one-shot timer slot whose continuation is bound
// once, at NewTimer. On a clock that implements Scheduler, Reset re-arms
// and Stop cancels through an eventq.Handle kept in the slot, so
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

// Reset supersedes the pending expiry, if any, with fn d from now. On a
// Scheduler it does not cancel first: the pending event is re-armed in
// place, which fires the same events, with the same keys, as a cancel
// and a fresh schedule, and costs a few stores when the expiry moves
// later, as it does on every packet and CNP.
func (t *Timer) Reset(d simtime.Duration) {
	if t.sched != nil {
		t.h = t.sched.Rearm(t.h, d, t.fn)
		return
	}
	t.Stop()
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
