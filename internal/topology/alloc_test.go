//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12), end to
// end: once a DCQCN incast is warm, the whole packet path — NIC pacing,
// RoCEv2 RTO re-arms, RP and NP timers, switch forwarding, PFC, CNPs,
// ACKs — allocates almost nothing per event. Timers re-arm through value
// handles with continuations bound once, and every packet returns to the
// pool of the device that built it. Race builds skip the budget (the
// detector perturbs counts).

package topology

import (
	"fmt"
	"runtime"
	"testing"

	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

// TestAllocBudgetSteadyState runs a 4:1 DCQCN incast on a star, warms it
// for 2 ms (pools, event headers and FIFO rings reach their peak, the RP
// timers are running), then counts heap objects over the next 1 ms of
// simulated time. What remains is message bookkeeping, one completion
// per 2 MB transfer.
func TestAllocBudgetSteadyState(t *testing.T) {
	const (
		senders = 4
		chunk   = 2 * 1000 * 1000
		budget  = 0.01
	)
	net := NewStar(1, senders+1, DefaultOptions())
	dst := net.Host(fmt.Sprintf("H%d", senders+1))
	for i := 1; i <= senders; i++ {
		f := net.Host(fmt.Sprintf("H%d", i)).OpenFlow(dst.ID)
		var again func(rocev2.Completion)
		again = func(rocev2.Completion) { f.PostMessage(chunk, again) }
		f.PostMessage(chunk, again)
	}
	net.Sim.Run(simtime.Time(2 * simtime.Millisecond))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, events := ms.Mallocs, net.Sim.Events()
	net.Sim.Run(simtime.Time(3 * simtime.Millisecond))
	runtime.ReadMemStats(&ms)
	mallocs, events = ms.Mallocs-mallocs, net.Sim.Events()-events

	if events < 1000 {
		t.Fatalf("only %d events in the measured millisecond: the incast did not run", events)
	}
	if cnps := dst.Stats.CNPsSent; cnps == 0 {
		t.Fatal("no CNPs: the incast never engaged DCQCN")
	}
	per := float64(mallocs) / float64(events)
	t.Logf("%d objects over %d events: %.4f/event", mallocs, events, per)
	if per > budget {
		t.Errorf("steady-state incast allocates %.4f objects/event (%d over %d events), budget is %v", per, mallocs, events, budget)
	}
}
