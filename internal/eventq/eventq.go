// Package eventq provides the deterministic priority queue that drives the
// discrete-event simulator.
//
// Events are ordered by timestamp; events with equal timestamps fire in a
// deterministic order given by a three-part key the engine assigns:
//
//	(class, k1, k2)
//
// where class separates control-plane events (scenario tickers, fault
// transitions), link-arrival events, and local model events; link arrivals
// carry an intrinsic (link direction ID, per-direction frame sequence) key;
// and control and local events carry the engine's scheduling ordinal. The
// order depends only on what was scheduled, never on heap layout, which is
// what makes a whole simulation bit-identical from its seed.
package eventq

import "dcqcn/internal/simtime"

// Event classes, in execution order at equal timestamps. Control events
// fire first so that measurements and fault transitions observe the state
// *before* same-instant model activity. Link arrivals precede local model
// events: an arrival is the continuation of a departure the far end
// already committed, so it keeps seniority over work scheduled at its own
// destination. Among themselves, arrivals fire in (direction, sequence)
// order, fixed by the traffic rather than by when they were scheduled.
const (
	ClassControl uint8 = iota // scenario/harness/fault-injection events
	ClassArrival              // frame arrivals at the far end of a link
	ClassLocal                // everything a model component schedules
)

// Key orders events that share a timestamp.
type Key struct {
	Class  uint8
	K1, K2 uint64
}

// Event is a callback scheduled to run at a point in simulated time.
//
// Event headers are pooled: the queue recycles them through an intrusive
// free list, so steady-state scheduling allocates nothing. A *Event that
// Pop returned stays valid until the next Pop (the caller runs its
// callback in between); after that the header may carry another event.
// Code that needs to refer to a scheduled event later holds a Handle,
// never the *Event.
type Event struct {
	At simtime.Time
	// Fn is the callback of an event scheduled with Push or PushKeyed;
	// nil for one scheduled with PushKeyedArg. Fire runs either form.
	Fn func()

	argFn func(any)
	arg   any

	k1, k2 uint64
	class  uint8
	index  int32  // heap index, -1 once popped, cancelled or free
	gen    uint64 // bumped every time the header returns to the pool
	next   *Event // free-list link
}

// Key returns the event's equal-time ordering key (exposed for tests).
func (e *Event) Key() Key { return Key{Class: e.class, K1: e.k1, K2: e.k2} }

// Fire runs the event's callback.
//
//hot:path
func (e *Event) Fire() {
	if e.Fn != nil {
		e.Fn()
		return
	}
	e.argFn(e.arg)
}

// Handle refers to one scheduled event. It pairs the pooled header with
// the generation the header had when the event was scheduled, so a handle
// outliving its event — fired, cancelled, header since reused — is
// recognised as stale: Cancel ignores it and Pending reports false. The
// zero Handle refers to nothing.
type Handle struct {
	e   *Event
	gen uint64
}

// Pending reports whether the event is still queued: scheduled, and
// neither fired nor cancelled. It is false for an event whose callback is
// running.
//
//hot:path
func (h Handle) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.index >= 0
}

// Queue is a binary min-heap of events. The zero value is an empty queue
// ready for use. Queue is not safe for concurrent use; each simulator
// core is single-threaded by design.
type Queue struct {
	heap []*Event
	ord  uint64 // insertion ordinal for the convenience Push
	// free is the intrusive list of recycled headers (linked through
	// Event.next). It grows to the peak number of pending events and is
	// reused for the rest of the run.
	free *Event
	// popped is the event the last Pop returned. Its callback may still
	// be running, so the header goes back to the pool only at the next
	// Pop.
	popped *Event
}

// Len returns the number of pending events.
//
//hot:path
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn at time at as a local-class event whose equal-time
// order is the insertion order (FIFO), and returns a handle that can be
// passed to Cancel. The engine supplies richer keys via PushKeyed; direct
// queue users get the classic deterministic FIFO tie-break.
//
//hot:path
func (q *Queue) Push(at simtime.Time, fn func()) Handle {
	k := Key{Class: ClassLocal, K1: q.ord}
	q.ord++
	return q.PushKeyed(at, k, fn)
}

// PushKeyed schedules fn at time at with the given equal-time key and
// returns a handle that can be passed to Cancel.
//
//hot:path
func (q *Queue) PushKeyed(at simtime.Time, key Key, fn func()) Handle {
	e := q.alloc()
	e.Fn = fn
	return q.insert(e, at, key)
}

// PushKeyedArg is PushKeyed for a callback taking one argument: fn(arg)
// runs at time at. A long-lived fn bound once (a method value, say) plus
// a pointer-shaped arg schedules without allocating, where a closure
// capturing arg would allocate per event.
//
//hot:path
func (q *Queue) PushKeyedArg(at simtime.Time, key Key, fn func(any), arg any) Handle {
	e := q.alloc()
	e.argFn, e.arg = fn, arg
	return q.insert(e, at, key)
}

//hot:path
func (q *Queue) insert(e *Event, at simtime.Time, key Key) Handle {
	e.At = at
	e.class, e.k1, e.k2 = key.Class, key.K1, key.K2
	e.index = int32(len(q.heap))
	q.heap = append(q.heap, e)
	q.up(int(e.index))
	return Handle{e: e, gen: e.gen}
}

// alloc takes a header from the pool, growing it when empty.
//
//hot:path
func (q *Queue) alloc() *Event {
	e := q.free
	if e == nil {
		return newEvent()
	}
	q.free = e.next
	return e
}

// newEvent grows the pool by one header. It stays out of line so the
// pool's only allocation site is this one function, not every inlined
// copy of alloc.
//
//go:noinline
//hot:path
func newEvent() *Event {
	// Amortized pool growth: one header per peak-pending event, recycled
	// for the rest of the run. Accepted in escape.golden.
	return &Event{}
}

// release returns a header to the pool. Bumping the generation
// invalidates every Handle to the event it carried; dropping the
// callback and argument lets them be collected.
//
//hot:path
func (q *Queue) release(e *Event) {
	e.gen++
	e.Fn, e.argFn, e.arg = nil, nil, nil
	e.next = q.free
	q.free = e
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty. The returned header is valid until the next Pop, which recycles
// it.
//
//hot:path
func (q *Queue) Pop() *Event {
	if q.popped != nil {
		q.release(q.popped)
		q.popped = nil
	}
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	top.index = -1
	q.popped = top
	return top
}

// Peek returns the earliest event without removing it, or nil if empty.
//
//hot:path
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Cancel removes a pending event from the queue. Cancelling through the
// zero handle or a stale one — the event fired, is firing, was cancelled,
// or its header has since been reused — is a no-op, so callers can cancel
// timers unconditionally.
//
//hot:path
func (q *Queue) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	e := h.e
	i := int(e.index)
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	e.index = -1
	q.release(e)
}

//hot:path
func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.At != b.At {
		return a.At < b.At
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.k2 < b.k2
}

//hot:path
func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = int32(i)
	q.heap[j].index = int32(j)
}

//hot:path
func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

//hot:path
func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.swap(i, least)
		i = least
	}
}
