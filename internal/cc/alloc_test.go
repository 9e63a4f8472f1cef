//go:build !race

// Allocation-budget tests for the hot-path contract (DESIGN §12):
// internal/cc is a designated hot package because its signal-delivery
// methods (OnAck, OnSwitchHint, react) run once per ACK or per hint on
// the NIC receive path. Each must execute with zero per-event heap
// allocation; the budgets here are the runtime half of the contract,
// escape.golden the compiler-backed half. Race builds skip the budgets.

package cc

import (
	"testing"

	"dcqcn/internal/packet"
	"dcqcn/internal/simtest"
)

func TestAllocBudgetDCTCPOnAck(t *testing.T) {
	p := *dctcpDefaults(testLineRate).(*DCTCPParams)
	c := NewDCTCPRate(p)
	s := AckSample{Packets: 4, Marked: 1, PayloadBytes: 4000}
	if avg := testing.AllocsPerRun(10000, func() { c.OnAck(s) }); avg != 0 {
		t.Errorf("DCTCPRate.OnAck allocates %.4f objects/ACK, budget is 0", avg)
	}
}

func TestAllocBudgetPolicyReact(t *testing.T) {
	p := *policyDefaults(testLineRate).(*PolicyParams)
	c := NewPolicy(p)
	marked := AckSample{Packets: 10, Marked: 5}
	if avg := testing.AllocsPerRun(10000, func() { c.OnAck(marked) }); avg != 0 {
		t.Errorf("Policy.OnAck allocates %.4f objects/ACK, budget is 0", avg)
	}
}

func TestAllocBudgetSwitchAssistHint(t *testing.T) {
	p := *switchAssistDefaults(testLineRate).(*SwitchAssistParams)
	c := NewSwitchAssist(p, &simtest.Clock{})
	defer c.Stop()
	h := SwitchHint{QueueBytes: p.QMax}
	// CutRate re-arms the RP rate timer, as DCQCN's OnCNP does per CNP.
	// The timer's continuation is bound once and the re-arm goes through
	// the clock's Scheduler handle (the test clock pools its events like
	// the engine), so a hint, linear-map math included, allocates
	// nothing.
	if avg := testing.AllocsPerRun(10000, func() { c.OnSwitchHint(h) }); avg != 0 {
		t.Errorf("SwitchAssist.OnSwitchHint allocates %.4f objects/hint, budget is 0", avg)
	}
}

func TestAllocBudgetSwitchAssistSampler(t *testing.T) {
	p := switchAssistDefaults(testLineRate).(*SwitchAssistParams)
	sample := switchAssistSampler(p, FabricContext{Switch: "SW"})
	pk := &packet.Packet{Type: packet.Data, Flow: 1}
	pk.Size = 1000
	// Warm the per-flow map entry outside the measurement; steady state
	// emits one Hint per HintBytes — that single allocation is the
	// feedback frame itself, amortized across HintBytes/Size samples.
	sample(pk, p.QMax)
	perHint := float64(pk.Size) / float64(p.HintBytes)
	avg := testing.AllocsPerRun(10000, func() { sample(pk, p.QMax) })
	if budget := 2 * perHint; avg > budget {
		t.Errorf("sampler allocates %.4f objects/packet, amortized budget is %.4f", avg, budget)
	}
}
