package cc

// Signal-delivery benchmarks for the cc subsystem: ns/op and allocs/op
// for the per-ACK and per-hint controller paths plus the fabric-side
// sampler. The hard budgets are enforced by the TestAllocBudget* tests
// in alloc_test.go (non-race builds).

import (
	"testing"

	"dcqcn/internal/packet"
	"dcqcn/internal/simtest"
)

// BenchmarkDCTCPOnAck measures one ACK-echo delivery into the
// DCTCP-style controller (window bookkeeping plus the occasional
// control decision).
func BenchmarkDCTCPOnAck(b *testing.B) {
	b.ReportAllocs()
	c := NewDCTCPRate(*dctcpDefaults(testLineRate).(*DCTCPParams))
	s := AckSample{Packets: 4, Marked: 1, PayloadBytes: 4000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnAck(s)
	}
}

// BenchmarkPolicyOnAck measures one ACK-echo delivery through the
// policy table: signal dispatch, rule scan, action application.
func BenchmarkPolicyOnAck(b *testing.B) {
	b.ReportAllocs()
	c := NewPolicy(*policyDefaults(testLineRate).(*PolicyParams))
	s := AckSample{Packets: 10, Marked: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnAck(s)
	}
}

// BenchmarkSwitchAssistOnHint measures one occupancy-hint delivery:
// the linear cut map plus the RP's CutRate (timer re-arm included).
func BenchmarkSwitchAssistOnHint(b *testing.B) {
	b.ReportAllocs()
	c := NewSwitchAssist(*switchAssistDefaults(testLineRate).(*SwitchAssistParams), &simtest.Clock{})
	defer c.Stop()
	h := SwitchHint{QueueBytes: 300 * 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnSwitchHint(h)
	}
}

// BenchmarkSwitchAssistSampler measures the fabric-side sampler per
// data packet at egress enqueue (the only cc code on the switch path).
func BenchmarkSwitchAssistSampler(b *testing.B) {
	b.ReportAllocs()
	p := switchAssistDefaults(testLineRate).(*SwitchAssistParams)
	sample := switchAssistSampler(p, FabricContext{Switch: "SW"})
	pkt := &packet.Packet{Type: packet.Data, Flow: 1}
	pkt.Size = 1000
	sample(pkt, p.QMax)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample(pkt, p.QMax)
	}
}
