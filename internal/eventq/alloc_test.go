//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): the
// steady-state push/pop cycle of the event queue allocates nothing —
// Event headers come from the queue's pool, which only grows when the
// number of pending events reaches a new peak. The race detector
// perturbs allocation counts, so the budget only runs in non-race
// builds; `make race` still compiles and runs everything else here.

package eventq

import (
	"testing"

	"dcqcn/internal/simtime"
)

func TestAllocBudgetPushPop(t *testing.T) {
	var q Queue
	fn := func() {}
	// Warm the heap's backing array and the header pool past the sizes
	// the measured cycle will see, so growth never lands inside the
	// measurement.
	for i := 0; i < 1024; i++ {
		q.Push(simtime.Time(i), fn)
	}
	for q.Len() > 512 {
		q.Pop()
	}

	base := simtime.Time(1 << 30)
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		i++
		q.Push(base.Add(simtime.Duration(i)), fn)
		q.Pop()
	})
	if avg != 0 {
		t.Errorf("push/pop cycle allocates %.2f objects/op, budget is 0 (headers are pooled)", avg)
	}
}
