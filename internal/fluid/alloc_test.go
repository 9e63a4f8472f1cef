//go:build !race

// Allocation budgets for the hot-path contract (DESIGN §12):
// internal/fluid is a designated hot package because Law.Step (and its
// halves Law.Drive and Law.Apply, which the hybrid substrate calls
// apart) and Law.StepQueue are the inner loop of both the standalone
// fluid solver and the hybrid substrate's per-10µs integration tick.
// Each must run with zero heap allocation; escape.golden is the
// compiler-backed half of the same contract. Race builds skip the
// budgets.

package fluid

import (
	"testing"

	"dcqcn/internal/core"
)

func TestAllocBudgetLawStep(t *testing.T) {
	law := NewLaw(core.DefaultParams(), 1500)
	s := law.InitialState(law.Params.LineRate / 10)
	m := law.Delay(0.01)
	if avg := testing.AllocsPerRun(10000, func() {
		law.Step(&s, m, s.RC, 1e-5)
	}); avg != 0 {
		t.Errorf("Law.Step allocates %.4f objects/step, budget is 0", avg)
	}
	var d Drive
	if avg := testing.AllocsPerRun(10000, func() {
		law.Drive(&d, m, s.RC)
	}); avg != 0 {
		t.Errorf("Law.Drive allocates %.4f objects/step, budget is 0", avg)
	}
	if avg := testing.AllocsPerRun(10000, func() {
		law.Apply(&s, &d, 1e-5)
	}); avg != 0 {
		t.Errorf("Law.Apply allocates %.4f objects/step, budget is 0", avg)
	}
}

func TestAllocBudgetStepQueue(t *testing.T) {
	law := NewLaw(core.DefaultParams(), 1500)
	q := 0.0
	if avg := testing.AllocsPerRun(10000, func() {
		q = law.StepQueue(q, 2e6, 1e6, 1e-5, 1e6)
	}); avg != 0 {
		t.Errorf("Law.StepQueue allocates %.4f objects/step, budget is 0", avg)
	}
}
