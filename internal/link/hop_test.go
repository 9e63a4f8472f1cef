package link

import (
	"math"
	"math/rand"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// The port's hop caches (the nonempty mask, the backlog total and the
// serialization memo) must give exactly what the computations they
// replaced give. These tests check each against a reference.

// scanNextPacket is the scheduler as it was before the nonempty mask: a
// scan of all eight classes, testing each FIFO for a packet. It pops
// through p.popFrom, so it keeps p's mask and totals up to date.
func scanNextPacket(p *Port) *packet.Packet {
	now := p.sim.Now()
	// Control classes: strict priority always.
	for prio := packet.NumPriorities - 1; prio >= packet.PrioControl; prio-- {
		if scanEligible(p, prio, now) {
			return p.popFrom(uint8(prio))
		}
	}
	if !p.drr {
		for prio := packet.PrioControl - 1; prio >= 0; prio-- {
			if scanEligible(p, prio, now) {
				return p.popFrom(uint8(prio))
			}
		}
		return nil
	}
	// Deficit round robin over the data classes: a class earns quantum
	// credit when its service turn begins and transmits packets while
	// the credit covers them; idle classes forfeit credit.
	for scanned := 0; scanned <= packet.PrioControl; scanned++ {
		prio := p.drrNext
		if !scanEligible(p, prio, now) {
			p.deficits[prio] = 0 // idle classes do not hoard credit
			p.drrServing = false
			p.drrNext = (p.drrNext + 1) % packet.PrioControl
			continue
		}
		if !p.drrServing {
			p.deficits[prio] += p.drrQuantum
			p.drrServing = true
		}
		if head := p.queues[prio].Peek(); p.deficits[prio] >= int64(head.Size) {
			p.deficits[prio] -= int64(head.Size)
			return p.popFrom(uint8(prio))
		}
		// Credit exhausted: end this class's turn, keep its deficit.
		p.drrServing = false
		p.drrNext = (p.drrNext + 1) % packet.PrioControl
	}
	return nil
}

func scanEligible(p *Port, prio int, now simtime.Time) bool {
	return !p.queues[prio].Empty() && now >= p.pausedUntil[prio]
}

// idlePort returns a connected port whose transmitter is held busy, so
// Enqueue only queues and the test pops through the scheduler itself.
func idlePort(sim *engine.Sim) *Port {
	a := NewPort(sim, "a", 0, 40*simtime.Gbps, &sink{sim: sim})
	b := NewPort(sim, "b", 0, 40*simtime.Gbps, &sink{sim: sim})
	Connect(sim, a, b, 0)
	a.busy = true
	return a
}

// TestNextPacketMatchesScan drives two ports in lockstep through random
// enqueues, pops, pause deadlines and clock advances, with DRR off and
// on: the port scheduled by the mask and the one scheduled by the full
// scan must pop the same packet every time, and the mask and the
// backlog total must agree with the FIFOs after every step.
func TestNextPacketMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		sim := engine.New(1)
		got, want := idlePort(sim), idlePort(sim)
		drr := trial%2 == 1
		if drr {
			quantum := packet.MaxFrameBytes + rng.Int63n(3*packet.MaxFrameBytes)
			got.EnableDRR(quantum)
			want.EnableDRR(quantum)
		}
		var seq int64
		pops := 0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 9: // enqueue the same frame on both ports
				prio := uint8(rng.Intn(packet.NumPriorities))
				if rng.Intn(2) == 0 {
					prio = packet.PrioData // most traffic rides one class
				}
				size := packet.ControlBytes + rng.Intn(packet.MaxFrameBytes-packet.ControlBytes+1)
				for _, p := range []*Port{got, want} {
					p.Enqueue(&packet.Packet{Type: packet.Data, Size: size, Priority: prio, PSN: seq})
				}
				seq++
			case op < 16: // pop
				g, w := got.nextPacket(), scanNextPacket(want)
				if (g == nil) != (w == nil) || g != nil && g.PSN != w.PSN {
					t.Fatalf("trial %d (DRR %v) step %d: mask popped %v, scan popped %v", trial, drr, step, g, w)
				}
				if g != nil {
					pops++
				}
			case op < 18: // pause or resume a class until a deadline near now
				prio := rng.Intn(packet.NumPriorities)
				until := sim.Now().Add(simtime.Duration(rng.Int63n(int64(2*simtime.Microsecond))) - simtime.Microsecond)
				got.pausedUntil[prio], want.pausedUntil[prio] = until, until
			default: // let time pass
				sim.Run(sim.Now().Add(simtime.Duration(rng.Int63n(int64(simtime.Microsecond)))))
			}
			checkHopState(t, got)
			if got.deficits != want.deficits || got.drrNext != want.drrNext || got.drrServing != want.drrServing {
				t.Fatalf("trial %d step %d: DRR state parted: mask %v/%d/%v, scan %v/%d/%v", trial, step,
					got.deficits, got.drrNext, got.drrServing, want.deficits, want.drrNext, want.drrServing)
			}
		}
		if pops == 0 {
			t.Fatalf("trial %d popped nothing: the comparison exercised no pop", trial)
		}
	}
}

// checkHopState requires p's nonempty mask to name exactly its nonempty
// FIFOs and its backlog total to equal the sum of its per-class bytes.
func checkHopState(t *testing.T, p *Port) {
	t.Helper()
	var total int64
	for prio := range p.queues {
		if has := p.nonempty&(1<<prio) != 0; has == p.queues[prio].Empty() {
			t.Fatalf("mask %08b, but class %d empty is %v", p.nonempty, prio, p.queues[prio].Empty())
		}
		total += p.queuedBytes[prio]
	}
	if p.TotalQueuedBytes() != total {
		t.Fatalf("backlog total %d, classes sum to %d", p.TotalQueuedBytes(), total)
	}
}

// TestSerializationMatchesTxTime checks the port's memo against
// Rate.TxTime for every frame size up to MaxFrameBytes, at 40 Gb/s (the
// rate every builder gives its NIC and switch ports), other line rates
// and random rates. Sizes alternate between the two ends of the range,
// so almost every call misses; each is then asked again, a hit.
func TestSerializationMatchesTxTime(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rates := []simtime.Rate{40 * simtime.Gbps, 10 * simtime.Gbps, 25 * simtime.Gbps, 100 * simtime.Gbps}
	for i := 0; i < 16; i++ {
		// Log-uniform over 1 Mb/s .. 1 Tb/s, so most are not round.
		rates = append(rates, simtime.Rate(math.Pow(10, 6+6*rng.Float64())))
	}
	sim := engine.New(1)
	for _, rate := range rates {
		p := NewPort(sim, "p", 0, rate, &sink{sim: sim})
		for i := 0; i <= packet.MaxFrameBytes; i++ {
			size := i / 2
			if i%2 == 1 {
				size = packet.MaxFrameBytes - i/2
			}
			want := rate.TxTime(size)
			if got := p.serialization(size); got != want {
				t.Fatalf("rate %v, size %d: memo gave %d ps after a miss, TxTime %d", rate, size, got, want)
			}
			if got := p.serialization(size); got != want {
				t.Fatalf("rate %v, size %d: memo gave %d ps on a hit, TxTime %d", rate, size, got, want)
			}
		}
	}
}
