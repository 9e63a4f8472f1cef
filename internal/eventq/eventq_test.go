package eventq

import (
	"math"
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

// TestEventSize keeps a pooled header within 88 bytes: the Event
// itself plus its entry in the queue's pointer-free slot table. The pool
// retains both for every peak-pending event for the whole run, so their
// sum is live heap.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}) + unsafe.Sizeof(slot{}); sz > 88 {
		t.Fatalf("Event plus slot is %d bytes, budget 88", sz)
	}
}

// TestPopUntil checks the run loop's horizon: PopUntil returns nil and
// leaves the queue as it was while the head is past the limit, and the
// radix base stays at the last pop, so a push between the limit and the
// head is still accepted and pops first. A limit below the last pop
// holds back even the events due at that pop's time.
func TestPopUntil(t *testing.T) {
	var q Queue
	if q.PopUntil(10) != nil {
		t.Fatal("PopUntil on empty queue should be nil")
	}
	q.Push(5, func() {})
	q.Push(5, func() {})
	head := q.Push(30, func() {})
	if e := q.PopUntil(10); e == nil || e.At != 5 {
		t.Fatalf("PopUntil(10) = %v, want the event at 5", e)
	}
	if e := q.PopUntil(4); e != nil {
		t.Fatalf("PopUntil(4) returned the event at %v past the limit", e.At)
	}
	if e := q.PopUntil(5); e == nil || e.At != 5 {
		t.Fatalf("PopUntil(5) = %v, want the second event at 5", e)
	}
	if e := q.PopUntil(25); e != nil {
		t.Fatalf("PopUntil(25) returned the event at %v past the limit", e.At)
	}
	if q.Len() != 1 || !head.Pending() {
		t.Fatal("PopUntil past the limit disturbed the queue")
	}
	q.Push(27, func() {})
	for _, want := range []simtime.Time{27, 30} {
		if e := q.PopUntil(30); e == nil || e.At != want {
			t.Fatalf("PopUntil(30) = %v, want the event at %v", e, want)
		}
	}
	if q.PopUntil(simtime.Forever) != nil {
		t.Fatal("queue should be empty")
	}
}

// TestPushBeforeLastPopPanics pins the radix heap's precondition: a push
// earlier than the last popped event, or at a negative time, panics
// rather than misfiling the event. The engine never makes either push.
func TestPushBeforeLastPopPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		pop  simtime.Time // time of an event popped first; < 0 for none
		at   simtime.Time
	}{
		{"before last pop", 10, 9},
		{"negative", -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue
			if tc.pop >= 0 {
				q.Push(tc.pop, func() {})
				q.Pop()
			}
			defer func() {
				if recover() == nil {
					t.Errorf("push at %v did not panic", tc.at)
				}
			}()
			q.Push(tc.at, func() {})
		})
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
// Pushes land at or after the last popped time, as the engine's do.
func TestHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	var last simtime.Time
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
			at := last.Add(simtime.Duration(rng.Intn(1000)))
			var h Handle
			h = q.Push(at, func() { delete(pending, h) })
			pending[h] = at
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
			last = e.At
			e.Fire()
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
// queue yields those times sorted. The times are offset to be
// non-negative, since the queue rejects negative ones.
func TestQuickSortedDrain(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue
		want := make([]simtime.Time, len(times))
		for i, v := range times {
			want[i] = simtime.Time(int64(v) - math.MinInt16)
			q.Push(want[i], func() {})
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

// BenchmarkPushPop holds the queue near 1024 pending events, each pushed
// a random delay after the last popped time.
func BenchmarkPushPop(b *testing.B) {
	var q Queue
	var now simtime.Time
	rng := rand.New(rand.NewSource(42))
	fn := func() {}
	for i := 0; i < b.N; i++ {
		q.Push(now.Add(simtime.Duration(rng.Int63n(1e12))), fn)
		if q.Len() > 1024 {
			now = q.Pop().At
		}
	}
}

// TestRearmMatchesCancelPush drives two queues in lockstep through the
// same random script: re-arms to earlier, later and equal times, through
// live and stale handles, cancels, pops and bounded pops. The reference
// re-arms by Cancel and Push, the other by Rearm. Both must pop the same
// (time, callback) sequence and agree on Len and every handle's Pending
// after every step. Times come from a narrow range, so equal-time ties,
// which only the re-arm's fresh FIFO ordinal orders, are common.
func TestRearmMatchesCancelPush(t *testing.T) {
	const timers = 24
	rng := rand.New(rand.NewSource(7))
	var ref, got Queue
	var hRef, hGot [timers]Handle
	var due [timers]simtime.Time // while pending
	var fnRef, fnGot [timers]func()
	firedRef, firedGot := -1, -1
	for k := range fnRef {
		k := k
		fnRef[k] = func() { firedRef = k }
		fnGot[k] = func() { firedGot = k }
	}
	var now simtime.Time // pushes never precede it, as the engine's clock
	pop := func(step int, limit simtime.Time) {
		a, b := ref.PopUntil(limit), got.PopUntil(limit)
		if (a == nil) != (b == nil) {
			t.Fatalf("step %d: PopUntil(%v) returned %v from the reference, %v from the re-arming queue", step, limit, a, b)
		}
		if a == nil {
			if limit > now && limit != simtime.Forever {
				now = limit
			}
			return
		}
		a.Fire()
		b.Fire()
		if a.At != b.At || firedRef != firedGot {
			t.Fatalf("step %d: popped timer %d at %v, reference popped %d at %v", step, firedGot, b.At, firedRef, a.At)
		}
		now = a.At
	}
	for step := 0; step < 200000; step++ {
		k := rng.Intn(timers)
		switch r := rng.Intn(20); {
		case r < 10: // re-arm timer k
			at := now.Add(simtime.Duration(rng.Intn(64)))
			if hRef[k].Pending() {
				switch rng.Intn(3) {
				case 0: // the same time
					at = due[k]
				case 1: // earlier, not before the clock
					at = max(now, due[k].Add(-simtime.Duration(rng.Intn(32))))
				default: // later
					at = due[k].Add(simtime.Duration(rng.Intn(64)))
				}
			}
			ref.Cancel(hRef[k])
			hRef[k] = ref.Push(at, fnRef[k])
			hGot[k] = got.Rearm(hGot[k], at, fnGot[k])
			due[k] = at
		case r < 12:
			ref.Cancel(hRef[k])
			got.Cancel(hGot[k])
		case r < 16:
			pop(step, simtime.Forever)
		default: // a horizon that may fall before the clock, at or past it
			pop(step, now.Add(simtime.Duration(rng.Intn(80)-8)))
		}
		if ref.Len() != got.Len() {
			t.Fatalf("step %d: Len %d, reference %d", step, got.Len(), ref.Len())
		}
		for j := range hRef {
			if hRef[j].Pending() != hGot[j].Pending() {
				t.Fatalf("step %d: timer %d pending=%v, reference %v", step, j, hGot[j].Pending(), hRef[j].Pending())
			}
		}
	}
}
