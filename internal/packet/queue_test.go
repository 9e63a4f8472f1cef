package packet

import (
	"math"
	"testing"
	"testing/quick"
)

// TestQueueOrder checks FIFO order across interleaved pushes and pops,
// and that a drained queue is empty again and unlinks every packet.
func TestQueueOrder(t *testing.T) {
	var q Queue
	if !q.Empty() || q.Pop() != nil || q.Peek() != nil {
		t.Fatal("zero queue should be empty")
	}
	var pkts []*Packet
	push := func(n int) {
		for i := 0; i < n; i++ {
			p := NewData(1, FiveTuple{}, int64(len(pkts)), 10, false)
			pkts = append(pkts, p)
			q.Push(p)
		}
	}
	next := 0
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if head := q.Peek(); head != pkts[next] {
				t.Fatalf("peek %d returned the wrong packet", next)
			}
			if got := q.Pop(); got != pkts[next] {
				t.Fatalf("pop %d returned the wrong packet", next)
			}
			next++
		}
	}
	push(100)
	pop(50)
	push(100)
	pop(150)
	if !q.Empty() || q.Pop() != nil {
		t.Fatal("queue should be empty after draining")
	}
	// Drain to empty and refill: a single packet is head and tail.
	push(1)
	pop(1)
	push(2)
	pop(2)
	for i, p := range pkts {
		if p.next != nil {
			t.Fatalf("packet %d still linked after its pop", i)
		}
	}
}

// mustPanic runs fn and fails unless it panics with want.
func mustPanic(t *testing.T, want error, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want panic %v", r, want)
		}
	}()
	fn()
}

// TestQueuePushQueuedPanics pushes packets that are already queued — the
// tail, whose link is the sentinel, and a packet mid-queue — into the
// same queue and into another one. Each push panics and leaves both
// queues as they were.
func TestQueuePushQueuedPanics(t *testing.T) {
	var q, other Queue
	a := NewData(1, FiveTuple{}, 0, 10, false)
	b := NewData(1, FiveTuple{}, 1, 10, false)
	c := NewData(1, FiveTuple{}, 2, 10, false)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	for _, tc := range []struct {
		name string
		p    *Packet
	}{{"tail", c}, {"mid-queue", b}} {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, errPushQueued, func() { q.Push(tc.p) })
			mustPanic(t, errPushQueued, func() { other.Push(tc.p) })
		})
	}
	if !other.Empty() {
		t.Fatal("a rejected push changed the other queue")
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != c || !q.Empty() {
		t.Fatal("a rejected push changed the queue")
	}
	// Popped, a packet may be queued again.
	other.Push(a)
	if other.Pop() != a {
		t.Fatal("a popped packet could not be queued again")
	}
}

// TestReleaseQueuedPanics releases a pooled packet that is still
// queued: the release panics, so the pool can never rebuild a packet a
// queue still links, and the packet stays queued and unpoisoned.
func TestReleaseQueuedPanics(t *testing.T) {
	var pl Pool
	var q Queue
	p := pl.NewPFC(3, true)
	q.Push(p)
	mustPanic(t, errReleaseQueued, p.Release)
	if p.Type != Pause || len(pl.free) != 0 {
		t.Fatalf("the rejected release poisoned or pooled the packet: type %v, %d free", p.Type, len(pl.free))
	}
	if q.Pop() != p {
		t.Fatal("the rejected release unlinked the packet")
	}
	p.Release()
	if len(pl.free) != 1 {
		t.Fatal("the popped packet did not return to its pool")
	}
}

// TestFeedbackRoundTrip checks the word QCN feedback and the hint
// occupancy share: each value reads back exactly, every float64 bit
// pattern included, and each accessor reads 0 on the other kind.
func TestFeedbackRoundTrip(t *testing.T) {
	ft := FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
	qcn := func(bits uint64) bool {
		fb := math.Float64frombits(bits)
		p := NewQCNFb(7, ft, fb)
		return math.Float64bits(p.QCNFeedback()) == bits && p.HintQueueBytes() == 0
	}
	hint := func(qlen int64) bool {
		p := NewHint(7, ft, qlen)
		return p.HintQueueBytes() == qlen && p.QCNFeedback() == 0
	}
	if err := quick.Check(qcn, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(hint, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-0.5, 63, math.Copysign(0, -1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64} {
		if !qcn(math.Float64bits(v)) {
			t.Errorf("QCN feedback %v did not round-trip", v)
		}
	}
	for _, v := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if !hint(v) {
			t.Errorf("hint occupancy %d did not round-trip", v)
		}
	}
	p := NewQCNFb(7, ft, 1)
	if p.Tuple != ft.Reverse() || p.Type != QCNFb || p.Size != ControlBytes || p.Priority != PrioControl {
		t.Fatalf("bad QCN feedback frame: %+v", *p)
	}
}
