//go:build !race

// Allocation-budget tests for the hot-path contract (DESIGN §12): the
// NIC's short FIFOs — flows stalled on the transmit backlog, CNPs
// waiting for the pacer, packets in a slow receive pipeline — refill on
// every PFC pause and marking burst, so a steady push/pop cycle must
// allocate nothing: the stall list reuses its backing array, and the
// packet queues link their packets through the packets themselves.
// Race builds skip the budgets.

package nic

import (
	"testing"

	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

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

// TestAllocBudgetRxPipeline drives two packets at a time through a
// rate-limited receive pipeline (HandlePacket queues both, the run
// drains them): the queue must allocate nothing.
func TestAllocBudgetRxPipeline(t *testing.T) {
	sim := engine.New(1)
	cfg := DefaultConfig()
	cfg.RxProcessingRate = 10 * simtime.Gbps
	n := New(sim, 1, "nic", cfg, NewDirectory())
	a := &packet.Packet{Type: packet.CNP, Size: packet.ControlBytes, Flow: 7}
	b := &packet.Packet{Type: packet.CNP, Size: packet.ControlBytes, Flow: 8}
	cycle := func() {
		n.HandlePacket(a, n.Port())
		n.HandlePacket(b, n.Port())
		sim.RunAll()
	}
	cycle() // warm: the event pool
	avg := testing.AllocsPerRun(1000, cycle)
	if avg != 0 {
		t.Errorf("receive pipeline allocates %.2f objects per cycle, budget is 0", avg)
	}
	if got := n.Stats.CNPsReceived; got != 2*1002 {
		t.Fatalf("pipeline consumed %d packets, want %d", got, 2*1002)
	}
	if n.RxBacklog() != 0 {
		t.Fatalf("receive backlog %d after the cycles, want 0", n.RxBacklog())
	}
}

// TestAllocBudgetTimerRearm re-arms a pending core.Timer on the engine
// clock, as the RTO is on every packet and the RP timers on every CNP:
// each cycle moves the deadline later or earlier by turns and runs the
// clock on by a microsecond, past old deadlines the pops re-file. The
// timer never fires, and re-arming allocates nothing.
func TestAllocBudgetTimerRearm(t *testing.T) {
	sim := engine.New(1)
	fired := false
	tm := core.NewTimer(Clock{Sim: sim}, func() { fired = true })
	i := 0
	cycle := func() {
		i++
		tm.Reset(simtime.Duration(5+5*(i%2)) * simtime.Microsecond)
		sim.Run(sim.Now().Add(simtime.Microsecond))
	}
	cycle() // warm: the event pool and the buckets
	avg := testing.AllocsPerRun(1000, cycle)
	if avg != 0 {
		t.Errorf("timer re-arm allocates %.2f objects per cycle, budget is 0", avg)
	}
	if fired || sim.Pending() != 1 {
		t.Fatalf("re-armed timer fired (%v) or left %d events pending, want 1", fired, sim.Pending())
	}
}
