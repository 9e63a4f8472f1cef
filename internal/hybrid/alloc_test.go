//go:build !race

// Allocation budget for the hot-path contract (DESIGN §12): the
// substrate's integration step fires every Config.Step (10 µs) of
// simtime for the whole run, so it is a per-event cost like the event
// queue's — and like there, the budget is zero heap allocations per
// step regardless of how many flows the substrate models. Each of
// tickRig's regimes holds it: the overloaded rig reuses its classes'
// drives on nearly every step, the unsaturated one recomputes them.
// Race builds skip the budget; the race detector perturbs allocation
// counts.

package hybrid

import (
	"testing"

	"dcqcn/internal/simtime"
)

func TestAllocBudgetTick(t *testing.T)            { tickAllocBudget(t, overloadFlows) }
func TestAllocBudgetTickUnsaturated(t *testing.T) { tickAllocBudget(t, unsaturatedFlows) }

// tickAllocBudget warms tickRig(bgFlows) up for 1 ms, then requires
// the integration step to allocate nothing.
func tickAllocBudget(t *testing.T, bgFlows int) {
	net, sub := tickRig(bgFlows)
	net.Sim.Run(simtime.Time(simtime.Millisecond))
	if !sub.Active() || sub.Steps() == 0 {
		t.Fatal("substrate not running")
	}
	if avg := testing.AllocsPerRun(200, func() { sub.tick(0) }); avg != 0 {
		t.Fatalf("integration step allocates %.1f objects/step, budget is 0", avg)
	}
}
