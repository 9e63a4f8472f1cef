package flightrec

// Allocation-budget benchmarks for the hot-path contract (DESIGN §12):
// ns/op and allocs/op for the budgeted event-loop paths — event queue
// push/pop and timer re-arm, link transmit, switch forward, recorder
// append. The hard budgets themselves are enforced by the per-package
// TestAllocBudget* tests (non-race builds).

import (
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/eventq"
	"dcqcn/internal/fabric"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// BenchmarkEventqPushPop measures the steady-state scheduling cycle:
// one Push and one Pop at stable queue depth.
func BenchmarkEventqPushPop(b *testing.B) {
	b.ReportAllocs()
	var q eventq.Queue
	fn := func() {}
	for i := 0; i < 512; i++ {
		q.Push(simtime.Time(i), fn)
	}
	base := simtime.Time(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(base.Add(simtime.Duration(i)), fn)
		q.Pop()
	}
}

// BenchmarkEventqRearm is BenchmarkEventqPushPop's cycle plus the re-arm
// of a pending timer, as a retransmission timeout is re-armed on every
// packet: 512 events one picosecond apart keep the clock moving, and 64
// timers, re-armed in turn, are each due 4,096 ps after their last
// re-arm. A re-arm to a later deadline is a few stores; the pop that
// reaches a timer's old deadline re-files it, about once per 64 cycles.
// The difference from BenchmarkEventqPushPop is the re-arm's share.
func BenchmarkEventqRearm(b *testing.B) {
	b.ReportAllocs()
	var q eventq.Queue
	fn := func() {}
	for i := 0; i < 512; i++ {
		q.Push(simtime.Time(i), fn)
	}
	const rto = 4096
	timers := make([]eventq.Handle, 64)
	for i := range timers {
		timers[i] = q.Push(rto, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(simtime.Time(512+i), fn)
		now := q.Pop().At
		k := i % len(timers)
		timers[k] = q.Rearm(timers[k], now.Add(rto), fn)
	}
}

type benchSink struct{ got int }

func (s *benchSink) HandlePacket(p *packet.Packet, port *link.Port) { s.got++ }

// BenchmarkLinkTransmit measures one complete frame transmission:
// enqueue, serialize, propagate, deliver. same-size re-sends one 1000-B
// frame, so the port's serialization memo always hits; alternating
// sends 1,562-B data frames and 64-B control frames by turns, so it
// always misses.
func BenchmarkLinkTransmit(b *testing.B) {
	data := &packet.Packet{Type: packet.Data, Size: packet.MaxFrameBytes, Priority: packet.PrioData}
	control := &packet.Packet{Type: packet.Ack, Size: packet.ControlBytes, Priority: packet.PrioControl}
	for _, bc := range []struct {
		name string
		pkts []*packet.Packet
	}{
		{"same-size", []*packet.Packet{{Type: packet.Data, Size: 1000}}},
		{"alternating", []*packet.Packet{data, control}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sim := engine.New(1)
			msim := sim.Model()
			rate := 40 * simtime.Gbps
			a := link.NewPort(msim, "a", 0, rate, &benchSink{})
			dst := link.NewPort(msim, "b", 1, rate, &benchSink{})
			link.Connect(msim, a, dst, simtime.Microsecond)
			for _, pkt := range bc.pkts {
				a.Enqueue(pkt)
				sim.RunAll()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Enqueue(bc.pkts[i%len(bc.pkts)])
				sim.RunAll()
			}
		})
	}
}

// BenchmarkSwitchForward measures the forwarding pipeline end to end:
// admission, PFC check, ECMP route, egress, departure accounting.
func BenchmarkSwitchForward(b *testing.B) {
	b.ReportAllocs()
	sim := engine.New(1)
	msim := sim.Model()
	cfg := fabric.DefaultConfig()
	sw := fabric.New(msim, 1, "S", 2, cfg)
	peer := link.NewPort(msim, "peer", 0, cfg.Spec.LineRate, &benchSink{})
	link.Connect(msim, sw.Port(1), peer, simtime.Microsecond)
	const routeDst = packet.NodeID(9)
	sw.AddRoute(routeDst, 1)
	pkt := &packet.Packet{
		Type:     packet.Data,
		Size:     1000,
		Tuple:    packet.FiveTuple{Src: 2, Dst: routeDst, SrcPort: 7, DstPort: 8},
		Priority: 3,
	}
	sw.HandlePacket(pkt, sw.Port(0))
	sim.RunAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.HandlePacket(pkt, sw.Port(0))
		sim.RunAll()
	}
}

// BenchmarkRecorderAppend measures the flight recorder's encode-and-
// append path for one event.
func BenchmarkRecorderAppend(b *testing.B) {
	b.ReportAllocs()
	sim := engine.New(1)
	r := newRecorder(&topology.Network{Sim: sim}, Config{})
	id := r.intern("S0.p1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.record(KindEnqueue, id, packet.Data, 7, int64(i), 1000, 3, 0, 0)
	}
}
