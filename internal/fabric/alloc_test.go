//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): the
// switch forwarding pipeline — admission, PFC threshold check, ECMP
// route, egress enqueue, departure accounting — and the link transmit
// it feeds allocate nothing (see internal/link's budget). Race builds
// skip the budget.

package fabric

import (
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

type fwdSink struct{ got int }

func (s *fwdSink) HandlePacket(p *packet.Packet, port *link.Port) { s.got++ }

func TestAllocBudgetForward(t *testing.T) {
	sim := engine.New(1)
	msim := sim.Model()
	cfg := DefaultConfig()
	sw := New(msim, 1, "S", 2, cfg)
	sink := &fwdSink{}
	peer := link.NewPort(msim, "peer", 0, cfg.Spec.LineRate, sink)
	link.Connect(msim, sw.Port(1), peer, simtime.Microsecond)

	const dst = packet.NodeID(9)
	sw.AddRoute(dst, 1)
	pkt := &packet.Packet{
		Type:     packet.Data,
		Size:     1000,
		Tuple:    packet.FiveTuple{Src: 2, Dst: dst, SrcPort: 7, DstPort: 8},
		Priority: 3,
	}
	sw.HandlePacket(pkt, sw.Port(0)) // warm FIFO rings and queue heap
	sim.RunAll()

	avg := testing.AllocsPerRun(1000, func() {
		sw.HandlePacket(pkt, sw.Port(0))
		sim.RunAll()
	})
	if avg != 0 {
		t.Errorf("switch forward allocates %.2f objects/packet, budget is 0", avg)
	}
	if sink.got == 0 {
		t.Fatal("no packets forwarded — the measurement exercised nothing")
	}
	if sw.Occupied() != 0 {
		t.Fatalf("buffer accounting leaked: %d bytes still occupied", sw.Occupied())
	}
}
