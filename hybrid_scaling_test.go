package dcqcn

// The hybrid co-simulation's scaling gate: an 8:1 incast on a star rig
// with a fluid background substrate at 0 / 10k / 100k / 1M flows. The
// ODE integrator's cost is per class and per port — independent of the
// flow count — while a packet-level simulation of the same background
// population scales with N (per-flow timers, per-packet events).
// Per-event host cost is measured by cmd/dcqcn-bench's hybrid-1m
// workload; BENCH_10.json at the repository root is a historical
// measurement of this comparison.

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// backlog keeps the hosts H<first>..H<last> each pouring 2 MB chunks
// into recv.
func backlog(sim *Network, first, last int, recv *Host) {
	for i := first; i <= last; i++ {
		flow := sim.Host(fmt.Sprintf("H%d", i)).OpenFlow(recv.NodeID())
		var post func()
		post = func() { flow.PostMessage(2e6, func(Completion) { post() }) }
		post()
	}
}

// hybridIncastRun drives the gate's workload: 8 senders pour 2 MB chunks
// into H9 for 10 ms simulated, over bgFlows fluid background flows
// spread across the star's host pairs. Returns the digest.
func hybridIncastRun(bgFlows int) string {
	opts := DefaultOptions()
	if bgFlows > 0 {
		opts = opts.WithBackgroundFlows(bgFlows)
	}
	sim := NewStarNetwork(1, 9, opts)
	backlog(sim, 1, 8, sim.Host("H9"))
	sim.RunFor(10 * Millisecond)
	return sim.Digest()
}

// packetIncastRun is the ground-truth cost model: the same 8:1 incast
// plus bgFlows real packet-level background flows from extra hosts
// into a second receiver, so the background loads the fabric without
// riding the measured bottleneck port.
func packetIncastRun(bgFlows int) string {
	sim := NewStarNetwork(1, 10+bgFlows, DefaultOptions())
	backlog(sim, 1, 8, sim.Host("H9"))
	backlog(sim, 11, 10+bgFlows, sim.Host("H10"))
	sim.RunFor(10 * Millisecond)
	return sim.Digest()
}

// timed runs fn once and returns its wall time.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// hybridIncastDigests pins hybridIncastRun's digest at each scale, so a
// change to the substrate's arithmetic fails here even where no golden
// scenario arms it with flows. The 100k and 1M runs share a digest: both
// hold every fluid queue at its cap, so the digest cannot see a class's
// state in overload (internal/hybrid's shadow test checks that state).
// They are pinned on amd64 only: Go may fuse the fluid law's x*y + z
// into one FMA elsewhere, which moves the last bits of a class's rate.
var hybridIncastDigests = map[int]string{
	0:         "108319:9eb7c03a721d1738",
	10_000:    "14871:a7d8be357550f0e7",
	100_000:   "12694:8637a3115b314336",
	1_000_000: "12694:8637a3115b314336",
}

// TestHybridScaling requires same-seed hybrid runs to be
// digest-identical at every scale and equal to the pinned digests, and
// the 100k-flow hybrid run to be at least 10x faster than what 100k
// real background flows would cost, extrapolated linearly from
// packet-level runs at small N. Each run is timed once: the margin is
// three orders of magnitude above the bound.
func TestHybridScaling(t *testing.T) {
	var hybrid100k time.Duration
	for _, bg := range []int{0, 10_000, 100_000, 1_000_000} {
		var a string
		d := timed(func() { a = hybridIncastRun(bg) })
		if b := hybridIncastRun(bg); a != b {
			t.Errorf("bg=%d: same-seed digests diverged: %s vs %s", bg, a, b)
		}
		if want := hybridIncastDigests[bg]; runtime.GOARCH == "amd64" && a != want {
			t.Errorf("bg=%d: digest %s, pinned %s", bg, a, want)
		}
		if bg == 100_000 {
			hybrid100k = d
		}
		t.Logf("hybrid bg=%d: %v", bg, d)
	}

	// Packet ground truth at small N; the per-flow slope extrapolates
	// to what 100k real background flows would cost. Real DCQCN flows
	// cost per-flow timer events even when marking throttles them, so
	// linear extrapolation is conservative for large N (state alone
	// grows the constant too).
	bgs := []int{0, 16, 64}
	var costs []time.Duration
	for _, bg := range bgs {
		costs = append(costs, timed(func() { packetIncastRun(bg) }))
		t.Logf("packet bg=%d: %v", bg, costs[len(costs)-1])
	}
	first, last := costs[0], costs[len(costs)-1]
	perFlow := float64(last-first) / float64(bgs[len(bgs)-1]-bgs[0])
	extrap := float64(first) + perFlow*100_000
	speedup := extrap / float64(hybrid100k)
	t.Logf("packet: %.0f ns/flow, extrapolated 100k = %v; hybrid speedup %.1fx",
		perFlow, time.Duration(extrap), speedup)
	if speedup < 10 {
		t.Errorf("hybrid at 100k background flows is only %.1fx faster than the packet extrapolation, want >= 10x",
			speedup)
	}
}
