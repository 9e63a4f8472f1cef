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
// order depends only on what was scheduled, never on the queue's layout,
// which is what makes a whole simulation bit-identical from its seed.
//
// The queue is a radix heap over the picosecond timestamp. It relies on
// the simulator's arrow of time: a push before the last popped event's
// time panics, and the engine never makes one. A pending event at
// time t sits in bucket bits.Len64(t ^ last), where last is the time of
// the last pop, so every bucket above 0 holds a range of times that
// shares its high bits with last. Bucket 0 holds the events at exactly
// last, in a small binary heap ordered by key; all events at one time
// always share a bucket, so that heap alone decides the tie order. When
// bucket 0 runs dry, Pop advances last to the earliest time in the lowest
// nonempty bucket and re-places that bucket's events, each into a lower
// bucket. Long-dated timers sit untouched in the high buckets until the
// clock nears them, so a pop touches only the events near the head.
package eventq

import (
	"fmt"
	"math/bits"

	"dcqcn/internal/simtime"
)

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
// Event headers are pooled: the queue recycles them, so steady-state
// scheduling allocates nothing. A *Event that Pop or PopUntil returned
// stays valid until the next call to either (the caller runs its
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

	gen uint64 // bumped every time the event leaves the queue
	id  int32  // the header's index in Queue.evs and Queue.slots
}

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
	return h.e != nil && h.e.gen == h.gen
}

// slot is the pointer-free half of a pooled header: the event's time and
// equal-time key, and its position within its bucket. The bucket itself
// is not stored: it is always bits.Len64(at ^ last). Keeping the slot out
// of Event means the queue's own bookkeeping writes carry no pointers and
// never hit a GC write barrier.
type slot struct {
	at     simtime.Time
	k1, k2 uint64
	class  uint8
	index  int32
}

// Queue is a radix heap of events. The zero value is an empty queue ready
// for use. Queue is not safe for concurrent use; each simulator core is
// single-threaded by design.
type Queue struct {
	// last is the time of the last popped event (0 before the first):
	// the radix base, and the earliest time a push may use.
	last simtime.Time
	// mask has bit b set iff bucket b (1..63) is nonempty. Bucket 0 is
	// tracked by its length.
	mask    uint64
	buckets [64][]int32 // header ids; bucket 0 is a binary heap by key
	n       int         // pending events
	ord     uint64      // insertion ordinal for the convenience Push
	// evs and slots are indexed by header id. The pool grows them by one
	// header per new peak of pending events, and free recycles the ids
	// for the rest of the run.
	evs   []*Event
	slots []slot
	free  []int32
	// popped is one more than the id of the event the last pop returned,
	// 0 if none. Its callback may still be running, so the header goes
	// back to the pool only at the next pop.
	popped int32
}

// Len returns the number of pending events.
//
//hot:path
func (q *Queue) Len() int { return q.n }

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
// returns a handle that can be passed to Cancel. It panics if at is
// before the last popped event's time, or negative.
//
//hot:path
func (q *Queue) PushKeyed(at simtime.Time, key Key, fn func()) Handle {
	e := q.insert(at, key)
	e.Fn = fn
	return Handle{e: e, gen: e.gen}
}

// PushKeyedArg is PushKeyed for a callback taking one argument: fn(arg)
// runs at time at. A long-lived fn bound once (a method value, say) plus
// a pointer-shaped arg schedules without allocating, where a closure
// capturing arg would allocate per event.
//
//hot:path
func (q *Queue) PushKeyedArg(at simtime.Time, key Key, fn func(any), arg any) Handle {
	e := q.insert(at, key)
	e.argFn, e.arg = fn, arg
	return Handle{e: e, gen: e.gen}
}

// insert takes a header from the pool and queues it at time at with the
// given key.
//
//hot:path
func (q *Queue) insert(at simtime.Time, key Key) *Event {
	if at < q.last {
		panic(fmt.Sprintf("eventq: push at %v before %v, the time of the last pop (or zero)", at, q.last))
	}
	id := q.alloc()
	s := &q.slots[id]
	s.at, s.class, s.k1, s.k2 = at, key.Class, key.K1, key.K2
	q.place(id, at)
	q.n++
	e := q.evs[id]
	e.At = at
	return e
}

// place files header id, due at time at, into its bucket relative to
// last.
//
//hot:path
func (q *Queue) place(id int32, at simtime.Time) {
	b := bits.Len64(uint64(at ^ q.last))
	if b == 0 {
		q.buckets[0] = append(q.buckets[0], id)
		q.up(len(q.buckets[0]) - 1)
		return
	}
	q.slots[id].index = int32(len(q.buckets[b]))
	q.buckets[b] = append(q.buckets[b], id)
	q.mask |= 1 << b
}

// alloc takes a header id from the pool, growing it when empty.
//
//hot:path
func (q *Queue) alloc() int32 {
	n := len(q.free)
	if n == 0 {
		return newEvent(q)
	}
	id := q.free[n-1]
	q.free = q.free[:n-1]
	return id
}

// newEvent grows the pool by one header and returns its id. It stays out
// of line so the pool's only allocation site is this one function, not
// every inlined copy of alloc.
//
//go:noinline
//hot:path
func newEvent(q *Queue) int32 {
	// Amortized pool growth: one header per peak-pending event, recycled
	// for the rest of the run. Accepted in escape.golden.
	e := &Event{}
	e.id = int32(len(q.evs))
	q.evs = append(q.evs, e)
	q.slots = append(q.slots, slot{})
	return e.id
}

// release returns header id to the pool. Dropping the callback and
// argument lets them be collected; the generation was already bumped
// when the event left the queue.
//
//hot:path
func (q *Queue) release(id int32) {
	e := q.evs[id]
	e.Fn, e.argFn, e.arg = nil, nil, nil
	q.free = append(q.free, id)
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty. The returned header is valid until the next Pop, which recycles
// it.
//
//hot:path
func (q *Queue) Pop() *Event { return q.PopUntil(simtime.Forever) }

// PopUntil removes and returns the earliest event if it is due at or
// before limit; otherwise, or if the queue is empty, it returns nil and
// leaves the pending events and the radix base untouched, so a later
// push may still land anywhere from the last pop on. The returned header
// is valid until the next Pop or PopUntil, which recycles it.
//
//hot:path
func (q *Queue) PopUntil(limit simtime.Time) *Event {
	if q.popped != 0 {
		q.release(q.popped - 1)
		q.popped = 0
	}
	if len(q.buckets[0]) == 0 {
		if q.mask == 0 || !q.advance(limit) {
			return nil
		}
	} else if q.last > limit {
		return nil
	}
	id := q.buckets[0][0]
	q.remove0(0)
	q.n--
	e := q.evs[id]
	e.gen++
	q.popped = id + 1
	return e
}

// advance moves the radix base to the earliest pending time, provided it
// is at or before limit, and re-places the events of the lowest nonempty
// bucket b, which holds that time. Every event of bucket b, like the new
// base, agrees with the old base above bit b-1 and differs from it at
// bit b-1, so it agrees with the new base from bit b-1 up and lands in a
// lower bucket. Events in higher buckets keep theirs: the new base agrees
// with the old one on every bit from b up.
//
//hot:path
func (q *Queue) advance(limit simtime.Time) bool {
	b := bits.TrailingZeros64(q.mask)
	ids := q.buckets[b]
	earliest := q.slots[ids[0]].at
	for _, id := range ids[1:] {
		if at := q.slots[id].at; at < earliest {
			earliest = at
		}
	}
	if earliest > limit {
		return false
	}
	q.last = earliest
	q.buckets[b] = q.buckets[b][:0]
	q.mask &^= 1 << b
	for _, id := range ids {
		q.place(id, q.slots[id].at)
	}
	return true
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
	e.gen++
	s := q.slots[e.id]
	if b := bits.Len64(uint64(s.at ^ q.last)); b == 0 {
		q.remove0(int(s.index))
	} else {
		ids := q.buckets[b]
		last := len(ids) - 1
		moved := ids[last]
		ids[s.index] = moved
		q.slots[moved].index = s.index
		q.buckets[b] = q.buckets[b][:last]
		if last == 0 {
			q.mask &^= 1 << b
		}
	}
	q.n--
	q.release(e.id)
}

// keyLess orders two events of bucket 0, which share a timestamp.
//
//hot:path
func (q *Queue) keyLess(a, b int32) bool {
	x, y := &q.slots[a], &q.slots[b]
	if x.class != y.class {
		return x.class < y.class
	}
	if x.k1 != y.k1 {
		return x.k1 < y.k1
	}
	return x.k2 < y.k2
}

// remove0 deletes position i from bucket 0's heap.
//
//hot:path
func (q *Queue) remove0(i int) {
	h := q.buckets[0]
	last := len(h) - 1
	moved := h[last]
	q.buckets[0] = q.buckets[0][:last]
	if i < last {
		h[i] = moved
		q.down(i)
		q.up(i)
	}
}

// up sifts bucket 0's heap entry at i toward the root.
//
//hot:path
func (q *Queue) up(i int) {
	h := q.buckets[0]
	id := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !q.keyLess(id, h[parent]) {
			break
		}
		h[i] = h[parent]
		q.slots[h[i]].index = int32(i)
		i = parent
	}
	h[i] = id
	q.slots[id].index = int32(i)
}

// down sifts bucket 0's heap entry at i toward the leaves.
//
//hot:path
func (q *Queue) down(i int) {
	h := q.buckets[0]
	n := len(h)
	id := h[i]
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && q.keyLess(h[right], h[least]) {
			least = right
		}
		if !q.keyLess(h[least], id) {
			break
		}
		h[i] = h[least]
		q.slots[h[i]].index = int32(i)
		i = least
	}
	h[i] = id
	q.slots[id].index = int32(i)
}
