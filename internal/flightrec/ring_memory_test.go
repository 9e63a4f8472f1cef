//go:build !race

// Live-memory bound of the recorder's ring. Race builds skip it: the
// detector's shadow memory distorts heap measurements.

package flightrec

import (
	"runtime"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/packet"
	"dcqcn/internal/topology"
)

// TestRetainedLiveMemoryBounded checks the ring's live heap, not just
// its encoded size: across a long wrapping run, the memory the recorder
// keeps reachable stays within MaxBytes plus one chunk (the active
// chunk, or the evicted one waiting to become it). Evicted chunks must
// not linger in the chunk list's backing array.
func TestRetainedLiveMemoryBounded(t *testing.T) {
	const maxBytes = 1 << 20
	// A chunk buffer is a large heap object: it occupies whole 8 KiB
	// pages.
	const chunkHeap = (chunkTarget + 64 + 8<<10 - 1) &^ (8<<10 - 1)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	r := newRecorder(&topology.Network{Sim: engine.New(1)}, Config{MaxBytes: maxBytes})
	id := r.intern("S0.p1")
	var peak int64
	for round := 0; round < 64; round++ {
		for i := 0; i < 5000; i++ {
			r.record(KindEnqueue, id, packet.Data, 7, int64(i), 1000, 3, 0, 0)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		peak = max(peak, int64(ms.HeapAlloc)-before)
	}
	if r.EventsEvicted() == 0 {
		t.Fatal("the ring never wrapped; the test exercises nothing")
	}
	// MaxBytes plus one chunk, in chunk buffers; the slack covers the
	// recorder's own tables and the chunk list.
	if limit := int64((maxBytes/chunkTarget+1)*chunkHeap + 32<<10); peak > limit {
		t.Fatalf("recorder kept %d bytes live, limit %d (MaxBytes + one chunk + slack)", peak, limit)
	}
	runtime.KeepAlive(r)
}
