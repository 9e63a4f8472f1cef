//go:build !race

// Live-memory bound of closed flows. Race builds skip it: the
// detector's shadow memory distorts heap measurements.

package nic

import (
	"runtime"
	"testing"

	"dcqcn/internal/fabric"
	"dcqcn/internal/rocev2"
)

// TestRetainedClosedFlows opens, completes and closes 1,000 flows one
// after another between two NICs, as a workload that opens a flow per
// transfer does. Close deletes both halves of the queue pair, so the
// NICs keep nothing of a closed flow: the live heap must end within
// 64 KB of where it started. Receive state that outlived its flow kept
// about 0.5 KB per flow, 500 KB here.
func TestRetainedClosedFlows(t *testing.T) {
	const (
		flows = 1000
		limit = 64 << 10
	)
	tb := newTestbed(9, 2, DefaultConfig(), fabric.DefaultConfig())
	cycle := func() {
		f := tb.nics[0].OpenFlow(2)
		done := false
		f.PostMessage(4000, func(rocev2.Completion) { done = true })
		tb.sim.RunAll()
		if !done {
			t.Fatal("transfer did not complete")
		}
		f.Close()
	}
	// Warm: the event and packet pools reach their steady sizes.
	for i := 0; i < 10; i++ {
		cycle()
	}
	before := liveHeap()
	for i := 0; i < flows; i++ {
		cycle()
	}
	if kept := liveHeap() - before; kept > limit {
		t.Fatalf("%d closed flows kept %d bytes live, limit %d", flows, kept, limit)
	}
	if got := tb.nics[1].Stats.StaleData; got != 0 {
		t.Fatalf("%d stale data frames: a flow closed with data in flight", got)
	}
	runtime.KeepAlive(tb)
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
