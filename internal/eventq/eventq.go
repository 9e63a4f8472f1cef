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
// the simulator's arrow of time: a push before the radix base, below,
// panics, and the engine never makes one. A pending event filed at
// time t sits in bucket bits.Len64(t ^ last), where last is the radix
// base: the time of the last pop, or a later time a bounded pop moved it
// to (see PopUntil). Every bucket above 0 holds a range of times that
// shares its high bits with last. Bucket 0 holds the events at exactly
// last, in a small binary heap ordered by key; all events at one time
// always share a bucket, so that heap alone decides the tie order. When
// bucket 0 runs dry, a pop advances last to the earliest time in the
// lowest nonempty bucket and re-files that bucket's events, each into a
// lower bucket; a lone event there becomes the base and pops at once.
// Long-dated timers sit untouched in the high buckets until the clock
// nears them, so a pop touches only the events near the head.
//
// A pending event can be re-armed in place (Rearm, RearmKeyed): it takes
// the new time, callback and key that a Cancel and a Push would give a new
// event, without leaving the queue. A re-arm to an earlier time moves the
// event to its new bucket. A re-arm to a later time only records it in
// Event.At, and the event stays filed at its old time, deferred: the pop
// that reaches it there re-files it at its due time instead of returning
// it. A filing is never later than the event's due time, and a pop
// returns only an event filed at its due time, so a deferred event fires
// neither early nor late, and in the place its key gives it. A timer
// pushed back over and over, as a retransmission timeout is on every
// packet, so costs a few stores per re-arm and one re-filing each time
// the clock reaches its old time.
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
	// At is the time the event is due. A re-arm to a later time leaves
	// the event filed at an earlier time, its slot's, until a pop
	// reaches it there and re-files it at At.
	At simtime.Time
	// Fn is the callback of an event scheduled with Push or PushKeyed;
	// nil for one scheduled with PushKeyedArg. Fire runs either form.
	Fn func()

	argFn func(any)
	arg   any

	gen uint64 // bumped every time the event leaves the queue or is re-armed
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
// outliving its event — fired, cancelled, re-armed, header since reused —
// is recognised as stale: Cancel ignores it, Pending reports false and a
// re-arm through it schedules a new event. The zero Handle refers to
// nothing.
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

// slot is the pointer-free half of a pooled header: the time the event
// is filed at, its equal-time key, and its position within its bucket.
// The bucket itself is not stored: it is always bits.Len64(at ^ last).
// Keeping the slot out of Event means the queue's own bookkeeping writes
// carry no pointers and never hit a GC write barrier.
type slot struct {
	at     simtime.Time // filed time: Event.At, or earlier while deferred
	k1, k2 uint64
	class  uint8
	index  int32
}

// Queue is a radix heap of events. The zero value is an empty queue ready
// for use. Queue is not safe for concurrent use; each simulator core is
// single-threaded by design.
type Queue struct {
	// last is the radix base and the earliest time a push may use: the
	// time of the last pop (0 before the first), or the later time a
	// bounded pop re-filing deferred events moved it to.
	last simtime.Time
	// mask has bit b set iff bucket b is nonempty.
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
// before the radix base (the last popped event's time, or a later
// horizon of PopUntil), or negative.
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

// insert takes a header from the pool, growing it when empty, and files
// it at time at with the given key.
//
//hot:path
func (q *Queue) insert(at simtime.Time, key Key) *Event {
	if at < q.last {
		panic(fmt.Sprintf("eventq: push at %v before the radix base %v (the last pop, or a horizon a bounded pop reached)", at, q.last))
	}
	var id int32
	if n := len(q.free); n > 0 {
		id = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		id = newEvent(q)
	}
	s := &q.slots[id]
	s.at, s.class, s.k1, s.k2 = at, key.Class, key.K1, key.K2
	if q.file(id, at) {
		q.up(len(q.buckets[0]) - 1)
	}
	q.n++
	e := q.evs[id]
	e.At = at
	return e
}

// file appends header id, filed at time at, to its bucket relative to
// last. It reports whether the header joined bucket 0 behind other
// events, in which case the caller sifts it up from the heap's last
// position; a lone bucket-0 event is already the heap's root. It is the
// queue's one filing body, small enough to inline and free of branches
// but the append's, so a push, a re-file and each event a radix advance
// moves files without a call.
//
//hot:path
func (q *Queue) file(id int32, at simtime.Time) (sift bool) {
	b := bits.Len64(uint64(at ^ q.last))
	n := len(q.buckets[b])
	q.slots[id].index = int32(n)
	q.buckets[b] = append(q.buckets[b], id)
	q.mask |= 1 << b
	return b == 0 && n > 0
}

// newEvent grows the pool by one header and returns its id. It stays out
// of line so the pool's only allocation site is this one function, not
// the hot body of insert.
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
// before limit; otherwise, or if the queue is empty, it returns nil. The
// returned header is valid until the next Pop or PopUntil, which
// recycles it.
//
// Returning nil, it leaves every pending event pending, but it may have
// moved the radix base up to limit, never past it: deferred events filed
// at or before limit but due after it are re-filed at their due times on
// the way. A later push must therefore be at or after limit (or after
// the last pop, if limit is before it). The engine's run loop pushes
// nothing before its clock, which it moves to the run's horizon when
// this returns nil. Without re-armed events the base stays at the last
// pop.
//
//hot:path
func (q *Queue) PopUntil(limit simtime.Time) *Event {
	if q.popped != 0 {
		q.release(q.popped - 1)
		q.popped = 0
	}
	for {
		var id int32
		if h := q.buckets[0]; len(h) > 0 {
			if q.last > limit {
				return nil
			}
			id = h[0]
			if last := len(h) - 1; last == 0 {
				q.buckets[0] = h[:0] // a lone event leaves no heap to repair
				q.mask &^= 1
			} else {
				h[0] = h[last]
				q.buckets[0] = h[:last]
				q.down(0)
			}
		} else if q.mask == 0 {
			return nil
		} else if b := bits.TrailingZeros64(q.mask); len(q.buckets[b]) == 1 {
			// A lone event in the lowest bucket holds the earliest filing:
			// it becomes the base, as advance would make it, and pops
			// without passing through bucket 0.
			id = q.buckets[b][0]
			if q.slots[id].at > limit {
				return nil
			}
			q.last = q.slots[id].at
			q.buckets[b] = q.buckets[b][:0]
			q.mask &^= 1 << b
		} else {
			if !q.advance(b, limit) {
				return nil
			}
			continue
		}
		e := q.evs[id]
		if e.At == q.last {
			q.n--
			e.gen++
			q.popped = id + 1
			return e
		}
		// Deferred by a re-arm: file it at its due time, a later bucket,
		// and look again.
		q.slots[id].at = e.At
		q.file(id, e.At)
	}
}

// advance moves the radix base to the earliest filed time, provided it
// is at or before limit, and re-files the events of bucket b, the lowest
// nonempty one, which holds that time. Every event of bucket b, like the new
// base, agrees with the old base above bit b-1 and differs from it at
// bit b-1, so it agrees with the new base from bit b-1 up and lands in a
// lower bucket. Events in higher buckets keep theirs: the new base agrees
// with the old one on every bit from b up.
//
//hot:path
func (q *Queue) advance(b int, limit simtime.Time) bool {
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
	q.buckets[b] = ids[:0]
	q.mask &^= 1 << b
	for _, id := range ids {
		q.file(id, q.slots[id].at)
	}
	// The events at the new base joined bucket 0 in bucket order; sift
	// each in turn, which builds the heap sifting on every filing would.
	for i := 1; i < len(q.buckets[0]); i++ {
		q.up(i)
	}
	return true
}

// Cancel removes a pending event from the queue. Cancelling through the
// zero handle or a stale one — the event fired, is firing, was cancelled
// or re-armed, or its header has since been reused — is a no-op, so
// callers can cancel timers unconditionally.
//
//hot:path
func (q *Queue) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	e := h.e
	e.gen++
	q.unfile(e.id)
	q.n--
	q.release(e.id)
}

// Rearm is Cancel(h) followed by Push(at, fn), done in place; see
// RearmKeyed.
//
//hot:path
func (q *Queue) Rearm(h Handle, at simtime.Time, fn func()) Handle {
	k := Key{Class: ClassLocal, K1: q.ord}
	q.ord++
	return q.RearmKeyed(h, at, k, fn)
}

// RearmKeyed is Cancel(h) followed by PushKeyed(at, key, fn), done in
// place: the event behind h takes time at, callback fn and the key, and
// h goes stale, as if the event were cancelled and a new one pushed. It
// returns the event's new handle. Through a stale or zero handle it is
// PushKeyed. A re-arm to an earlier time moves the event to its bucket;
// a later one only records the time, and the pop that reaches the old
// filing re-files the event. An event in bucket 0, whose heap orders by
// key, always moves. It panics where PushKeyed would.
//
//hot:path
func (q *Queue) RearmKeyed(h Handle, at simtime.Time, key Key, fn func()) Handle {
	if !h.Pending() {
		return q.PushKeyed(at, key, fn)
	}
	if at < q.last {
		panic(fmt.Sprintf("eventq: re-arm at %v before the radix base %v (the last pop, or a horizon a bounded pop reached)", at, q.last))
	}
	e := h.e
	e.gen++
	e.At, e.Fn = at, fn // Fire prefers Fn, so an argument event runs fn
	id := e.id
	s := &q.slots[id]
	if at >= s.at && s.at != q.last { // defer: keep the filing, outside bucket 0's heap
		s.class, s.k1, s.k2 = key.Class, key.K1, key.K2
		return Handle{e: e, gen: e.gen}
	}
	q.unfile(id)
	s.at, s.class, s.k1, s.k2 = at, key.Class, key.K1, key.K2
	if q.file(id, at) {
		q.up(len(q.buckets[0]) - 1)
	}
	return Handle{e: e, gen: e.gen}
}

// unfile takes header id out of its bucket.
//
//hot:path
func (q *Queue) unfile(id int32) {
	s := &q.slots[id]
	b := bits.Len64(uint64(s.at ^ q.last))
	if b == 0 {
		q.remove0(int(s.index))
	} else {
		ids := q.buckets[b]
		last := len(ids) - 1
		moved := ids[last]
		ids[s.index] = moved
		q.slots[moved].index = s.index
		q.buckets[b] = ids[:last]
	}
	if len(q.buckets[b]) == 0 {
		q.mask &^= 1 << b
	}
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
