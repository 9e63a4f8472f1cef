//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): one
// complete frame transmission — enqueue, serialize, propagate, deliver
// — allocates nothing. Both events it schedules (transmit done, arrival)
// take pooled headers; the arrival carries the frame as the argument of
// the direction's pre-bound continuation, and the pre-bound txDone
// continuation keeps the rest off the heap. Race builds skip the budget
// (the detector perturbs counts).

package link

import (
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

type allocSink struct{ got int }

func (s *allocSink) HandlePacket(p *packet.Packet, port *Port) { s.got++ }

func TestAllocBudgetTransmit(t *testing.T) {
	sim := engine.New(1)
	msim := sim.Model()
	rate := 40 * simtime.Gbps
	a := NewPort(msim, "a", 0, rate, &allocSink{})
	sink := &allocSink{}
	b := NewPort(msim, "b", 1, rate, sink)
	Connect(msim, a, b, simtime.Microsecond)

	pkt := &packet.Packet{Type: packet.Data, Size: 1000}
	// One warm transmit outside the measurement settles lazy state
	// (FIFO ring buffers, queue heap growth).
	a.Enqueue(pkt)
	sim.RunAll()

	avg := testing.AllocsPerRun(1000, func() {
		a.Enqueue(pkt)
		sim.RunAll()
	})
	if avg != 0 {
		t.Errorf("transmit allocates %.2f objects/frame, budget is 0", avg)
	}
	if sink.got == 0 {
		t.Fatal("no frames delivered — the measurement exercised nothing")
	}
}
