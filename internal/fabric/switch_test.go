package fabric

import (
	"math"
	"slices"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// host is a minimal traffic endpoint for switch tests: it records what it
// receives and can inject packets through its port.
type host struct {
	id   packet.NodeID
	port *link.Port
	got  []*packet.Packet
}

func newHost(sim *engine.Sim, id packet.NodeID, rate simtime.Rate) *host {
	h := &host{id: id}
	h.port = link.NewPort(sim, "host", 0, rate, h)
	return h
}

func (h *host) HandlePacket(p *packet.Packet, _ *link.Port) { h.got = append(h.got, p) }

// rig builds hosts connected to consecutive switch ports, with routes
// installed, and returns them.
func rig(sim *engine.Sim, cfg Config, n int) (*Switch, []*host) {
	sw := New(sim, 100, "sw", n, cfg)
	hosts := make([]*host, n)
	for i := range hosts {
		hosts[i] = newHost(sim, packet.NodeID(i+1), cfg.Spec.LineRate)
		link.Connect(sim, hosts[i].port, sw.Port(i), 100*simtime.Nanosecond)
		sw.AddRoute(hosts[i].id, i)
	}
	return sw, hosts
}

func tuple(src, dst packet.NodeID, sport uint16) packet.FiveTuple {
	return packet.FiveTuple{Src: src, Dst: dst, SrcPort: sport, DstPort: 4791, Proto: 17}
}

func TestForwarding(t *testing.T) {
	sim := engine.New(1)
	sw, hosts := rig(sim, DefaultConfig(), 3)
	p := packet.NewData(1, tuple(1, 3, 999), 0, packet.MTU, true)
	hosts[0].port.Enqueue(p)
	sim.Run(simtime.Time(100 * simtime.Microsecond))
	if len(hosts[2].got) != 1 {
		t.Fatalf("host 3 received %d packets, want 1", len(hosts[2].got))
	}
	if len(hosts[1].got) != 0 {
		t.Fatal("packet leaked to wrong host")
	}
	if sw.Stats.Forwarded != 1 {
		t.Fatalf("forwarded counter %d, want 1", sw.Stats.Forwarded)
	}
	if sw.Occupied() != 0 {
		t.Fatalf("buffer accounting leak: %d bytes still held", sw.Occupied())
	}
}

func TestNoRoutePanics(t *testing.T) {
	sim := engine.New(1)
	_, hosts := rig(sim, DefaultConfig(), 2)
	hosts[0].port.Enqueue(packet.NewData(1, tuple(1, 99, 1), 0, 100, false))
	defer func() {
		if recover() == nil {
			t.Fatal("forwarding without a route did not panic")
		}
	}()
	sim.Run(simtime.Time(simtime.Millisecond))
}

func TestECMPSpread(t *testing.T) {
	sim := engine.New(1)
	cfg := DefaultConfig()
	sw := New(sim, 100, "sw", 4, cfg)
	src := newHost(sim, 1, cfg.Spec.LineRate)
	a := newHost(sim, 2, cfg.Spec.LineRate)
	b := newHost(sim, 2, cfg.Spec.LineRate) // same dst ID reachable via two uplinks
	link.Connect(sim, src.port, sw.Port(0), 0)
	link.Connect(sim, a.port, sw.Port(1), 0)
	link.Connect(sim, b.port, sw.Port(2), 0)
	sw.AddRoute(2, 1, 2)
	const flows = 400
	for i := 0; i < flows; i++ {
		src.port.Enqueue(packet.NewData(packet.FlowID(i), tuple(1, 2, uint16(i)), 0, 100, false))
	}
	sim.Run(simtime.Time(10 * simtime.Millisecond))
	got := len(a.got) + len(b.got)
	if got != flows {
		t.Fatalf("delivered %d, want %d", got, flows)
	}
	if len(a.got) < flows/4 || len(b.got) < flows/4 {
		t.Fatalf("poor ECMP spread: %d vs %d", len(a.got), len(b.got))
	}
}

func TestECMPIsPerFlow(t *testing.T) {
	// All packets of one flow must take the same path (no reordering).
	sim := engine.New(1)
	cfg := DefaultConfig()
	sw := New(sim, 100, "sw", 3, cfg)
	src := newHost(sim, 1, cfg.Spec.LineRate)
	a := newHost(sim, 2, cfg.Spec.LineRate)
	b := newHost(sim, 2, cfg.Spec.LineRate)
	link.Connect(sim, src.port, sw.Port(0), 0)
	link.Connect(sim, a.port, sw.Port(1), 0)
	link.Connect(sim, b.port, sw.Port(2), 0)
	sw.AddRoute(2, 1, 2)
	ft := tuple(1, 2, 7777)
	for i := 0; i < 50; i++ {
		src.port.Enqueue(packet.NewData(1, ft, int64(i), 100, false))
	}
	sim.Run(simtime.Time(10 * simtime.Millisecond))
	if len(a.got) != 0 && len(b.got) != 0 {
		t.Fatalf("single flow split across paths: %d vs %d", len(a.got), len(b.got))
	}
}

// TestECNMarking drives an egress queue above KMax and checks packets get
// CE-marked in the deterministic region.
func TestECNMarking(t *testing.T) {
	sim := engine.New(1)
	cfg := DefaultConfig()
	cfg.Marking.KMin = 3000 // ~2 packets
	cfg.Marking.KMax = 3000 // cut-off marking for determinism
	cfg.Marking.PMax = 1
	sw, hosts := rig(sim, cfg, 3)
	// Two senders into one receiver at line rate: the egress queue to
	// hosts[2] must build beyond 3KB quickly.
	for i := 0; i < 40; i++ {
		hosts[0].port.Enqueue(packet.NewData(1, tuple(1, 3, 1), int64(i), packet.MTU, false))
		hosts[1].port.Enqueue(packet.NewData(2, tuple(2, 3, 2), int64(i), packet.MTU, false))
	}
	sim.Run(simtime.Time(simtime.Millisecond))
	if len(hosts[2].got) != 80 {
		t.Fatalf("received %d, want 80", len(hosts[2].got))
	}
	marked := 0
	for _, p := range hosts[2].got {
		if p.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no packets CE-marked despite standing queue")
	}
	if int64(marked) != sw.Stats.EcnMarked {
		t.Fatalf("marked %d but switch counted %d", marked, sw.Stats.EcnMarked)
	}
	// Early packets (queue below KMin) must not be marked.
	if hosts[2].got[0].CE {
		t.Fatal("first packet marked with empty queue")
	}
}

// TestPFCPauseAndResume forces an ingress queue over a small static
// threshold and verifies XOFF goes upstream, then XON after draining.
func TestPFCPauseAndResume(t *testing.T) {
	sim := engine.New(1)
	cfg := DefaultConfig()
	cfg.StaticPFCThreshold = 20000 // ~13 MTU packets
	sw, hosts := rig(sim, cfg, 3)
	// Two senders saturate the egress to hosts[2]; each ingress queue
	// builds because the egress drains at half the aggregate arrival rate.
	for i := 0; i < 100; i++ {
		hosts[0].port.Enqueue(packet.NewData(1, tuple(1, 3, 1), int64(i), packet.MTU, false))
		hosts[1].port.Enqueue(packet.NewData(2, tuple(2, 3, 2), int64(i), packet.MTU, false))
	}
	sim.Run(simtime.Time(10 * simtime.Millisecond))
	if sw.Stats.PauseSent == 0 {
		t.Fatal("no PAUSE sent despite ingress queue over threshold")
	}
	if sw.Stats.ResumeSent == 0 {
		t.Fatal("no RESUME sent after queues drained")
	}
	if hosts[0].port.Stats.PauseRx == 0 && hosts[1].port.Stats.PauseRx == 0 {
		t.Fatal("upstream hosts never received PAUSE")
	}
	if sw.Stats.Drops != 0 {
		t.Fatalf("%d drops despite PFC", sw.Stats.Drops)
	}
	if got := len(hosts[2].got); got != 200 {
		t.Fatalf("received %d, want 200 (lossless)", got)
	}
}

// TestOverflowWithoutPFC shrinks the buffer and disables PFC: tail drops.
func TestOverflowWithoutPFC(t *testing.T) {
	sim := engine.New(1)
	cfg := DefaultConfig()
	cfg.PFCEnabled = false
	cfg.Spec.BufferBytes = 50 * 1000 // 50 KB: ~32 packets
	sw, hosts := rig(sim, cfg, 3)
	for i := 0; i < 200; i++ {
		hosts[0].port.Enqueue(packet.NewData(1, tuple(1, 3, 1), int64(i), packet.MTU, false))
		hosts[1].port.Enqueue(packet.NewData(2, tuple(2, 3, 2), int64(i), packet.MTU, false))
	}
	sim.Run(simtime.Time(10 * simtime.Millisecond))
	if sw.Stats.Drops == 0 {
		t.Fatal("no drops despite overflowing buffer without PFC")
	}
	if len(hosts[2].got)+int(sw.Stats.Drops) != 400 {
		t.Fatalf("conservation violated: %d delivered + %d dropped != 400",
			len(hosts[2].got), sw.Stats.Drops)
	}
}

// TestLosslessUnderPFC is the §4 guarantee as a property: with dynamic
// thresholds and correct headroom, no admissible traffic pattern drops.
func TestLosslessUnderPFC(t *testing.T) {
	sim := engine.New(7)
	cfg := DefaultConfig()
	// Shrink the buffer aggressively so the test actually stresses PFC;
	// keep headroom consistent via the spec's own formula.
	cfg.Spec.BufferBytes = 2 * 1000 * 1000
	cfg.Spec.Ports = 8
	sw, hosts := rig(sim, cfg, 8)
	rng := sim.Rand()
	// 7 senders blast the 8th host in random bursts.
	for i := 0; i < 7; i++ {
		for j := 0; j < 300; j++ {
			hosts[i].port.Enqueue(packet.NewData(
				packet.FlowID(i), tuple(hosts[i].id, 8, uint16(rng.Intn(1000))),
				int64(j), packet.MTU, false))
		}
	}
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	if sw.Stats.Drops != 0 {
		t.Fatalf("%d drops under PFC with correct thresholds", sw.Stats.Drops)
	}
	if len(hosts[7].got) != 7*300 {
		t.Fatalf("delivered %d, want %d", len(hosts[7].got), 7*300)
	}
	if sw.Occupied() != 0 {
		t.Fatalf("buffer accounting leak: %d", sw.Occupied())
	}
}

func TestIngressAccounting(t *testing.T) {
	sim := engine.New(1)
	cfg := DefaultConfig()
	cfg.StaticPFCThreshold = 1 << 40 // never pause; isolate accounting
	sw, hosts := rig(sim, cfg, 2)
	for i := 0; i < 10; i++ {
		hosts[0].port.Enqueue(packet.NewData(1, tuple(1, 2, 1), int64(i), packet.MTU, false))
	}
	sim.Run(simtime.Time(simtime.Millisecond))
	if q := sw.IngressQueue(0, packet.PrioData); q != 0 {
		t.Fatalf("ingress queue not drained: %d", q)
	}
	if sw.Stats.MaxOccupied == 0 {
		t.Fatal("high-water mark never recorded")
	}
}

// TestPrecomputedPFCThreshold: the threshold the switch evaluates from
// the usable buffer it computed once at New equals the spec's
// DynamicPFCThreshold, which recomputes the headroom every call, over a
// grid of β and occupancy — occupancy past the usable buffer (threshold
// 0) and past the whole buffer included — and for a second geometry.
func TestPrecomputedPFCThreshold(t *testing.T) {
	small := DefaultConfig()
	small.Spec.Ports, small.Spec.BufferBytes, small.Spec.CableDelay = 8, 4*1000*1000, 2*simtime.Microsecond
	for _, cfg := range []Config{DefaultConfig(), small} {
		sw := New(engine.New(1), 1, "sw", 2, cfg)
		spec := cfg.Spec
		usable := spec.BufferBytes - int64(spec.Priorities*spec.Ports)*spec.Headroom()
		occupancies := []int64{0, 1, 1500, usable / 3, usable - 1, usable, usable + 1, spec.BufferBytes, 2 * spec.BufferBytes}
		for _, beta := range []float64{0.25, 1, 1.5, 2, 8, 16, 64} {
			sw.SetBeta(beta)
			for _, occ := range occupancies {
				sw.occupied = occ
				want := spec.DynamicPFCThreshold(beta, occ)
				if got := sw.pfcThreshold(); got != want {
					t.Errorf("buffer %d, β=%v, occupied %d: threshold %d, want %d", spec.BufferBytes, beta, occ, got, want)
				}
				if occ >= usable && want != 0 {
					t.Errorf("buffer %d, β=%v, occupied %d ≥ usable %d: threshold %d, want 0", spec.BufferBytes, beta, occ, usable, want)
				}
			}
		}
	}
}

// TestMarkStreamSeededAtFirstDraw: New seeds no marking stream, since
// only a probabilistic mark draws from it. The first draw builds it from
// markStreamSeed, and SetMarking keeps drawing from the same stream: the
// decisions are those of a stream seeded at New.
func TestMarkStreamSeededAtFirstDraw(t *testing.T) {
	sim := engine.New(7)
	sw := New(sim, 42, "sw", 2, DefaultConfig())
	if sw.markRng != nil {
		t.Fatal("New seeded a marking stream")
	}
	ref := sim.NewStream(markStreamSeed(sim.Seed(), sw.ID))
	for i := 0; i < 100; i++ {
		if got, want := sw.markDraw(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: %v, want %v", i, got, want)
		}
	}
	// Under a profile that marks the queue below with probability 1/4,
	// each decision is the stream's next draw.
	half := sw.Config().Marking
	half.KMin, half.KMax, half.PMax = 0, 1<<40, 0.5
	sw.SetMarking(half)
	q := int64(1 << 39)
	p := half.MarkingProbability(q)
	if p <= 0 || p >= 1 {
		t.Fatalf("marking probability %v: the profile does not draw", p)
	}
	for i := 0; i < 100; i++ {
		if got, want := sw.cp.ShouldMark(q), ref.Float64() < p; got != want {
			t.Fatalf("mark %d after SetMarking: %v, want %v", i, got, want)
		}
	}
}

// TestRefreshesBuiltAtFirstXOFF: a switch builds an ingress port's XOFF
// refreshes at the port's first XOFF. Ports that forward without ever
// pausing their sender keep none.
func TestRefreshesBuiltAtFirstXOFF(t *testing.T) {
	sim := engine.New(1)
	cfg := DefaultConfig()
	cfg.StaticPFCThreshold = 20000
	sw, hosts := rig(sim, cfg, 3)
	for i := 0; i < 100; i++ {
		hosts[0].port.Enqueue(packet.NewData(1, tuple(1, 3, 1), int64(i), packet.MTU, false))
		hosts[1].port.Enqueue(packet.NewData(2, tuple(2, 3, 2), int64(i), packet.MTU, false))
	}
	hosts[2].port.Enqueue(packet.NewData(3, tuple(3, 1, 3), 0, packet.MTU, false))
	sim.Run(simtime.Time(simtime.Millisecond))
	for i := 0; i < 2; i++ {
		if sw.PortStats(i).PauseTx == 0 || sw.pauseRefresh[i] == nil {
			t.Fatalf("port %d: %d XOFFs sent, refreshes built %v", i, sw.PortStats(i).PauseTx, sw.pauseRefresh[i] != nil)
		}
	}
	if sw.PortStats(2).PauseTx != 0 || sw.pauseRefresh[2] != nil {
		t.Fatal("port 2 never paused its sender but built refreshes")
	}
}

// TestOneRefreshPerIngressQueue: an ingress queue that goes XOFF, XON,
// XOFF within half a pause interval keeps one refresh chain. The refresh
// the first XOFF left pending is superseded, so while the queue stays
// above threshold the XOFFs that follow go out exactly every half
// interval after the last one, and no others.
func TestOneRefreshPerIngressQueue(t *testing.T) {
	const half = link.DefaultPauseDuration / 2
	sim := engine.New(1)
	cfg := DefaultConfig()
	cfg.StaticPFCThreshold = 20000 // ~13 MTU packets; XON at 17,000 B
	sw, hosts := rig(sim, cfg, 2)
	var xoff, xon []simtime.Time
	sw.Port(0).OnEnqueue = func(p *packet.Packet) {
		switch p.Type {
		case packet.Pause:
			xoff = append(xoff, sim.Now())
		case packet.Resume:
			xon = append(xon, sim.Now())
		}
	}
	// hosts[1] pauses the switch's egress toward it, so what hosts[0]
	// sends piles up in ingress queue (0, PrioData): XOFF. Releasing the
	// egress drains it: XON. Pausing the egress again 10 µs later
	// refills it: XOFF. From then on hosts[1] holds the egress paused.
	at := func(us int64, on bool) {
		sim.At(simtime.Time(us)*simtime.Time(simtime.Microsecond), func() {
			hosts[1].port.SendPFC(packet.PrioData, on)
		})
	}
	at(0, true)
	at(30, false)
	at(40, true)
	for us := int64(440); us < 2400; us += 400 {
		at(us, true)
	}
	for i := 0; i < 400; i++ {
		hosts[0].port.Enqueue(packet.NewData(1, tuple(1, 2, 1), int64(i), packet.MTU, false))
	}
	sim.Run(simtime.Time(100 * simtime.Microsecond).Add(4*half + half/2))

	if len(xoff) < 2 || len(xon) != 1 || xon[0] < xoff[0] || xon[0] > xoff[1] || xoff[1].Sub(xoff[0]) >= half {
		t.Fatalf("want XOFF, XON, XOFF within half an interval: XOFFs at %v, XONs at %v", xoff, xon)
	}
	last := xoff[1]
	want := []simtime.Time{last.Add(half), last.Add(2 * half), last.Add(3 * half), last.Add(4 * half)}
	if got := xoff[2:]; !slices.Equal(got, want) {
		t.Fatalf("refresh XOFFs at %v, want one every half interval after the last XOFF: %v", got, want)
	}
}
