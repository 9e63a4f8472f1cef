//go:build !race

// Live-memory bound of a drained egress queue. Race builds skip it: the
// detector's shadow memory distorts heap measurements.

package link

import (
	"runtime"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// countSink counts what a port delivers and keeps no packet.
type countSink struct{ got int }

func (s *countSink) HandlePacket(*packet.Packet, *Port) { s.got++ }

// TestRetainedDrainedQueue fills one priority's egress queue with a
// burst while the peer holds it paused, then drains it: once the
// frames are delivered and collected, the queue must keep nothing of
// the burst. A queue that kept its high-water mark, as a growable ring
// of slots does, would keep 32 KB for this burst until the port dies.
//
// The bound holds for the least of up to three attempts, each on new
// ports. A collection can start an OS thread, whose runtime structures
// (about 5 KB) land on the heap inside the measured window; a queue
// that keeps its burst keeps it on every attempt.
func TestRetainedDrainedQueue(t *testing.T) {
	const limit = 4 << 10
	var kept []int64
	for len(kept) < 3 {
		kept = append(kept, drainedQueueKept(t))
		if kept[len(kept)-1] <= limit {
			return
		}
	}
	t.Fatalf("drained queue kept %v bytes live in three attempts, limit %d", kept, limit)
}

// drainedQueueKept XOFFs a new port's data class, queues a burst of
// 4,096 frames behind the pause, sends XON, drains the queue, and
// returns the live heap left above its level before the burst.
func drainedQueueKept(t *testing.T) int64 {
	const burst = 4096
	sim := engine.New(1)
	sink := &countSink{}
	a := NewPort(sim, "a", 0, 40*simtime.Gbps, sink)
	b := NewPort(sim, "b", 0, 40*simtime.Gbps, sink)
	Connect(sim, a, b, simtime.Microsecond)

	// Let the XOFF's one-time state settle before the baseline.
	b.SendPFC(packet.PrioData, true)
	sim.Run(simtime.Time(10 * simtime.Microsecond))
	if !a.Paused(packet.PrioData) {
		t.Fatal("the XOFF did not pause the data class")
	}
	before := liveHeap()

	for i := 0; i < burst; i++ {
		a.Enqueue(packet.NewData(1, packet.FiveTuple{}, int64(i), 1000, false))
	}
	if got := a.QueuedBytes(packet.PrioData); got != burst*(1000+packet.HeaderBytes) {
		t.Fatalf("%d bytes queued while paused, want the whole burst", got)
	}
	b.SendPFC(packet.PrioData, false)
	sim.RunAll()
	if sink.got != burst {
		t.Fatalf("delivered %d packets, want the burst of %d", sink.got, burst)
	}
	kept := liveHeap() - before
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	return kept
}

// liveHeap returns the bytes of live heap objects. It collects twice: a
// sync.Pool's contents survive one collection in its victim cache, and
// would otherwise count as live in the baseline and be gone later.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
