//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): the
// NIC's short FIFOs — flows stalled on the transmit backlog, CNPs
// waiting for the pacer — refill on every PFC pause and marking burst,
// so a steady push/pop cycle must reuse their backing arrays. Race
// builds skip the budget.

package nic

import "testing"

func TestAllocBudgetPopFront(t *testing.T) {
	var q []*flowState
	a, b := &flowState{}, &flowState{}
	q = append(q, a, b) // warm: the backing array the cycle reuses
	popFront(&q)
	popFront(&q)
	avg := testing.AllocsPerRun(1000, func() {
		q = append(q, a, b)
		if popFront(&q) != a || popFront(&q) != b {
			t.Fatal("popFront broke FIFO order")
		}
	})
	if avg != 0 {
		t.Errorf("push/pop cycle allocates %.2f objects, budget is 0", avg)
	}
	if len(q) != 0 || cap(q) < 2 {
		t.Fatalf("queue len %d cap %d after the cycles", len(q), cap(q))
	}
}
