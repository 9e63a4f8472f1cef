// Package simtest provides test doubles shared by the unit tests of the
// protocol packages: a manually advanced clock that implements both
// core.Clock and core.Scheduler over an eventq.Queue, so unit tests run
// the same handle path the engine gives the simulator.
package simtest

import (
	"dcqcn/internal/eventq"
	"dcqcn/internal/simtime"
)

// Clock is a manual test clock. The zero value starts at time 0 with no
// timers. Timers due at the same time fire in the order they were armed.
type Clock struct {
	now simtime.Time
	q   eventq.Queue
}

// Now returns the current time.
func (c *Clock) Now() simtime.Time { return c.now }

// After schedules fn once, d from now, and returns a cancel function.
func (c *Clock) After(d simtime.Duration, fn func()) func() {
	h := c.q.Push(c.now.Add(d), fn)
	return func() { c.Cancel(h) }
}

// Rearm schedules fn once, d from now, superseding the timer behind h,
// and returns the new handle.
func (c *Clock) Rearm(h eventq.Handle, d simtime.Duration, fn func()) eventq.Handle {
	return c.q.Rearm(h, c.now.Add(d), fn)
}

// Cancel removes a pending timer; a stale or zero handle is a no-op.
func (c *Clock) Cancel(h eventq.Handle) { c.q.Cancel(h) }

// Advance moves the clock forward by d, firing due timers in order.
func (c *Clock) Advance(d simtime.Duration) {
	target := c.now.Add(d)
	for e := c.q.PopUntil(target); e != nil; e = c.q.PopUntil(target) {
		c.now = e.At
		e.Fire()
	}
	c.now = target
}

// Pending returns the number of live timers.
func (c *Clock) Pending() int { return c.q.Len() }
