package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"dcqcn/internal/simtime"
)

func TestPopOrder(t *testing.T) {
	var q Queue
	var got []int
	times := []simtime.Time{50, 10, 30, 20, 40}
	for i, at := range times {
		i := i
		q.Push(at, func() { got = append(got, i) })
	}
	for q.Len() > 0 {
		e := q.Pop()
		e.Fn()
	}
	want := []int{1, 3, 2, 4, 0} // indices sorted by time
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop %d: got event %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Push(7, func() { got = append(got, i) })
	}
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of order: pos %d got %d", i, got[i])
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := map[int]bool{}
	var handles []Handle
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, q.Push(simtime.Time(i), func() { fired[i] = true }))
	}
	q.Cancel(handles[0])
	q.Cancel(handles[5])
	q.Cancel(handles[9])
	q.Cancel(handles[5]) // double cancel is a no-op
	q.Cancel(Handle{})   // zero-handle cancel is a no-op
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	for _, i := range []int{0, 5, 9} {
		if fired[i] {
			t.Errorf("cancelled event %d fired", i)
		}
	}
	for _, i := range []int{1, 2, 3, 4, 6, 7, 8} {
		if !fired[i] {
			t.Errorf("event %d did not fire", i)
		}
	}
}

// TestCancelledStatus checks Handle.Pending across the event lifecycle:
// queued, cancelled, popped.
func TestCancelledStatus(t *testing.T) {
	var q Queue
	if (Handle{}).Pending() {
		t.Fatal("zero handle reports pending")
	}
	h := q.Push(1, func() {})
	if !h.Pending() {
		t.Fatal("fresh event does not report pending")
	}
	q.Cancel(h)
	if h.Pending() {
		t.Fatal("cancelled event reports pending")
	}
	h2 := q.Push(1, func() {})
	q.Pop()
	if h2.Pending() {
		t.Fatal("popped event reports pending")
	}
}

// TestStaleHandleAfterReuse is the pool's safety regression: a handle
// to an event that fired must stay inert after its header is recycled
// for a new event. Cancelling through it must not touch the new
// occupant, which still fires.
func TestStaleHandleAfterReuse(t *testing.T) {
	var q Queue
	old := q.Push(1, func() {})
	first := q.Pop()
	if q.Pop() != nil { // hands first's header back to the pool
		t.Fatal("queue should be empty")
	}
	fired := false
	fresh := q.Push(2, func() { fired = true })
	if fresh.e != first {
		t.Fatal("the pool did not reuse the freed header; the test exercises nothing")
	}
	if old.Pending() {
		t.Fatal("stale handle reports pending after its header was reused")
	}
	q.Cancel(old)
	if !fresh.Pending() || q.Len() != 1 {
		t.Fatal("cancelling a stale handle removed the header's new occupant")
	}
	q.Pop().Fire()
	if !fired {
		t.Fatal("the new occupant did not fire")
	}
}

// TestCancelWhileFiring pins the contract the DCQCN rate timer relies
// on: an event cancelling its own handle from inside its callback is a
// no-op, and the header stays valid until the next Pop.
func TestCancelWhileFiring(t *testing.T) {
	var q Queue
	var self Handle
	other := false
	self = q.Push(1, func() { q.Cancel(self) })
	q.Push(2, func() { other = true })
	e := q.Pop()
	e.Fire()
	if e.At != 1 || q.Len() != 1 {
		t.Fatalf("self-cancel disturbed the queue: popped at %v, %d pending", e.At, q.Len())
	}
	q.Pop().Fire()
	if !other {
		t.Fatal("remaining event did not fire")
	}
}

func TestPushKeyedArg(t *testing.T) {
	var q Queue
	var got []int
	fn := func(x any) { got = append(got, *x.(*int)) }
	a, b := 1, 2
	q.PushKeyedArg(5, Key{Class: ClassArrival, K1: 3, K2: 1}, fn, &b)
	q.PushKeyedArg(5, Key{Class: ClassArrival, K1: 3, K2: 0}, fn, &a)
	for q.Len() > 0 {
		q.Pop().Fire()
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("arg events fired %v, want [1 2] in key order", got)
	}
}

// TestEventSize keeps the pooled header within 80 bytes: the pool
// retains one per peak-pending event, so its size is live heap.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz > 80 {
		t.Fatalf("Event is %d bytes, budget 80", sz)
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if q.Peek() != nil {
		t.Fatal("peek on empty queue should be nil")
	}
	q.Push(5, func() {})
	e := q.Push(3, func() {})
	if q.Peek() != e.e {
		t.Fatal("peek did not return earliest event")
	}
	if q.Len() != 2 {
		t.Fatal("peek must not remove events")
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if q.Pop() != nil {
		t.Fatal("pop on empty queue should be nil")
	}
}

// TestHeapProperty drives the queue with random pushes, pops and cancels
// and checks every pop returns the minimum of the currently-pending times.
func TestHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	pending := map[Handle]simtime.Time{}
	minPending := func() (simtime.Time, bool) {
		min, ok := simtime.Forever, false
		for _, at := range pending {
			if at <= min {
				min, ok = at, true
			}
		}
		return min, ok
	}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			at := simtime.Time(rng.Intn(1000))
			pending[q.Push(at, func() {})] = at
		case r < 8:
			want, any := minPending()
			e := q.Pop()
			if !any {
				if e != nil {
					t.Fatal("pop returned event from empty queue")
				}
				continue
			}
			if e == nil {
				t.Fatal("pop returned nil with pending events")
			}
			if e.At != want {
				t.Fatalf("pop returned %d, min pending is %d", e.At, want)
			}
			delete(pending, Handle{e: e, gen: e.gen})
		default:
			for e := range pending { // random map iteration picks a victim
				q.Cancel(e)
				delete(pending, e)
				break
			}
		}
	}
}

// TestQuickSortedDrain property: pushing any set of times and draining the
// queue yields those times sorted.
func TestQuickSortedDrain(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue
		for _, v := range times {
			q.Push(simtime.Time(v), func() {})
		}
		want := make([]simtime.Time, len(times))
		for i, v := range times {
			want[i] = simtime.Time(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; q.Len() > 0; i++ {
			if got := q.Pop().At; got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(42))
	fn := func() {}
	for i := 0; i < b.N; i++ {
		q.Push(simtime.Time(rng.Int63n(1e12)), fn)
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}
