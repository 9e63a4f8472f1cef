package link

import (
	"slices"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// sink records everything a port delivers to its device.
type sink struct {
	got []*packet.Packet
	at  []simtime.Time
	sim *engine.Sim
}

func (s *sink) HandlePacket(p *packet.Packet, _ *Port) {
	s.got = append(s.got, p)
	s.at = append(s.at, s.sim.Now())
}

func pair(sim *engine.Sim, rate simtime.Rate, delay simtime.Duration) (*Port, *Port, *sink, *sink) {
	sa, sb := &sink{sim: sim}, &sink{sim: sim}
	a := NewPort(sim, "a", 0, rate, sa)
	b := NewPort(sim, "b", 0, rate, sb)
	Connect(sim, a, b, delay)
	return a, b, sa, sb
}

func TestDeliveryTiming(t *testing.T) {
	sim := engine.New(1)
	a, _, _, sb := pair(sim, 40*simtime.Gbps, 500*simtime.Nanosecond)
	pkt := packet.NewData(1, packet.FiveTuple{}, 0, packet.MTU, false)
	a.Enqueue(pkt)
	sim.RunAll()
	if len(sb.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sb.got))
	}
	// 1562 bytes at 40G = 312.4ns serialization + 500ns propagation.
	want := simtime.Time(312400 + 500000)
	if sb.at[0] != want {
		t.Fatalf("delivered at %v, want %v", sb.at[0], want)
	}
}

func TestBackToBackSerialization(t *testing.T) {
	sim := engine.New(1)
	a, _, _, sb := pair(sim, 40*simtime.Gbps, 0)
	for i := 0; i < 3; i++ {
		a.Enqueue(packet.NewData(1, packet.FiveTuple{}, int64(i), packet.MTU, false))
	}
	sim.RunAll()
	if len(sb.got) != 3 {
		t.Fatalf("delivered %d, want 3", len(sb.got))
	}
	// Packets serialize back to back: arrivals at 1x, 2x, 3x tx time.
	tx := simtime.Time(312400)
	for i, at := range sb.at {
		if at != tx*simtime.Time(i+1) {
			t.Errorf("packet %d at %v, want %v", i, at, tx*simtime.Time(i+1))
		}
	}
}

func TestStrictPriority(t *testing.T) {
	sim := engine.New(1)
	a, _, _, sb := pair(sim, 40*simtime.Gbps, 0)
	low := packet.NewData(1, packet.FiveTuple{}, 0, packet.MTU, false)
	low2 := packet.NewData(1, packet.FiveTuple{}, 1, packet.MTU, false)
	high := packet.NewCNP(2, packet.FiveTuple{})
	// Enqueue two low-priority packets, then a CNP. The first data packet
	// is already serializing (never abandoned), but the CNP must overtake
	// the second data packet.
	a.Enqueue(low)
	a.Enqueue(low2)
	a.Enqueue(high)
	sim.RunAll()
	if len(sb.got) != 3 {
		t.Fatalf("delivered %d, want 3", len(sb.got))
	}
	if sb.got[0] != low || sb.got[1] != high || sb.got[2] != low2 {
		t.Fatalf("order %v %v %v; want DATA, CNP, DATA", sb.got[0].Type, sb.got[1].Type, sb.got[2].Type)
	}
}

func TestPFCPausesOnlyThatPriority(t *testing.T) {
	sim := engine.New(1)
	a, b, _, sb := pair(sim, 40*simtime.Gbps, 0)
	// Pause the data class on a's transmitter by having b send XOFF.
	b.SendPFC(packet.PrioData, true)
	sim.Run(simtime.Time(1000 * simtime.Nanosecond))
	if !a.Paused(packet.PrioData) {
		t.Fatal("data class not paused after XOFF")
	}
	if a.Paused(packet.PrioControl) {
		t.Fatal("control class wrongly paused")
	}
	data := packet.NewData(1, packet.FiveTuple{}, 0, packet.MTU, false)
	cnp := packet.NewCNP(2, packet.FiveTuple{})
	a.Enqueue(data)
	a.Enqueue(cnp)
	sim.Run(simtime.Time(5000 * simtime.Nanosecond))
	if len(sb.got) != 1 || sb.got[0] != cnp {
		t.Fatalf("paused class leaked: got %d packets", len(sb.got))
	}
	// XON releases the data packet.
	b.SendPFC(packet.PrioData, false)
	sim.Run(simtime.Time(10000 * simtime.Nanosecond))
	if len(sb.got) != 2 || sb.got[1] != data {
		t.Fatalf("data not released after XON: got %d packets", len(sb.got))
	}
	if a.Stats.PauseRx != 1 || a.Stats.ResumeRx != 1 {
		t.Fatalf("pfc counters: pauseRx=%d resumeRx=%d", a.Stats.PauseRx, a.Stats.ResumeRx)
	}
	if a.Stats.PausedFor[packet.PrioData] <= 0 {
		t.Fatal("paused duration not accounted")
	}
}

func TestPauseExpires(t *testing.T) {
	sim := engine.New(1)
	a, b, _, sb := pair(sim, 40*simtime.Gbps, 0)
	b.SendPFC(packet.PrioData, true)
	sim.Run(simtime.Time(1 * simtime.Microsecond))
	a.Enqueue(packet.NewData(1, packet.FiveTuple{}, 0, packet.MTU, false))
	sim.Run(simtime.Time(DefaultPauseDuration) / 2)
	if len(sb.got) != 0 {
		t.Fatal("packet sent while paused")
	}
	// Without refresh, the pause expires after DefaultPauseDuration and
	// the queued packet flows.
	sim.Run(simtime.Time(DefaultPauseDuration) * 2)
	if len(sb.got) != 1 {
		t.Fatalf("packet not released after pause expiry: got %d", len(sb.got))
	}
}

// TestOneExpiryPerPriority: each XOFF received replaces the pending
// pause expiry instead of adding one, so after k XOFFs a quarter
// interval apart exactly one event is pending. The pause still ends at
// the last XOFF + DefaultPauseDuration: PausedFor runs from the first
// XOFF to that instant, and the expiry's kick sends the queued frame.
func TestOneExpiryPerPriority(t *testing.T) {
	const k = 4
	sim := engine.New(1)
	a, b, _, sb := pair(sim, 40*simtime.Gbps, 0)
	var rx []simtime.Time
	a.OnPFC = func(*packet.Packet) { rx = append(rx, sim.Now()) }
	for i := 0; i < k; i++ {
		sim.At(simtime.Time(0).Add(simtime.Duration(i)*DefaultPauseDuration/4), func() {
			b.SendPFC(packet.PrioData, true)
		})
	}
	sim.Run(simtime.Time(simtime.Microsecond))
	a.Enqueue(packet.NewData(1, packet.FiveTuple{}, 0, packet.MTU, false))
	sim.Run(simtime.Time(0).Add((k-1)*DefaultPauseDuration/4 + simtime.Microsecond))
	if len(rx) != k {
		t.Fatalf("%d XOFFs received, want %d", len(rx), k)
	}
	if n := sim.Pending(); n != 1 {
		t.Fatalf("%d events pending after %d XOFFs, want 1: the one pause expiry", n, k)
	}
	sim.RunAll()
	end := rx[k-1].Add(DefaultPauseDuration)
	if got, want := a.Stats.PausedFor[packet.PrioData], end.Sub(rx[0]); got != want {
		t.Errorf("paused for %v, want %v", got, want)
	}
	sent := end.Add(a.Rate().TxTime(packet.MTU + packet.HeaderBytes))
	if len(sb.got) != 1 || sb.at[0] != sent {
		t.Fatalf("queued frame delivered at %v, want one at %v", sb.at, sent)
	}
}

// TestExpiryBuiltAtFirstXOFF: a port no peer has paused carries no
// expiry timers, whatever traffic it saw; the first XOFF it receives
// builds them, with the paused priority's expiry pending.
func TestExpiryBuiltAtFirstXOFF(t *testing.T) {
	sim := engine.New(1)
	a, b, _, _ := pair(sim, 40*simtime.Gbps, 0)
	a.Enqueue(packet.NewData(1, packet.FiveTuple{}, 0, packet.MTU, false))
	b.Enqueue(packet.NewData(2, packet.FiveTuple{}, 0, packet.MTU, false))
	b.SendPFC(packet.PrioData, false)
	sim.RunAll()
	if a.expiry != nil || b.expiry != nil {
		t.Fatal("expiry timers built before any XOFF")
	}
	b.SendPFC(packet.PrioData, true)
	sim.Run(sim.Now().Add(simtime.Microsecond))
	if a.expiry == nil || !a.expiry.pending[packet.PrioData].Pending() {
		t.Fatal("the first XOFF left no pending expiry")
	}
	if b.expiry != nil {
		t.Fatal("the sending port built expiry timers")
	}
}

func TestInFlightPacketNotAbandoned(t *testing.T) {
	sim := engine.New(1)
	a, b, _, sb := pair(sim, 40*simtime.Gbps, 0)
	a.Enqueue(packet.NewData(1, packet.FiveTuple{}, 0, packet.MTU, false))
	// XOFF arrives while the data packet is serializing (tx takes 312ns;
	// the 64B XOFF takes 12.8ns and lands well before that).
	b.SendPFC(packet.PrioData, true)
	sim.RunAll()
	if len(sb.got) != 1 {
		t.Fatal("in-flight packet was abandoned by PFC")
	}
}

func TestQueuedBytesAccounting(t *testing.T) {
	sim := engine.New(1)
	a, b, _, _ := pair(sim, 40*simtime.Gbps, 0)
	b.SendPFC(packet.PrioData, true)
	sim.Run(simtime.Time(100 * simtime.Nanosecond))
	for i := 0; i < 5; i++ {
		a.Enqueue(packet.NewData(1, packet.FiveTuple{}, int64(i), packet.MTU, false))
	}
	want := int64(5 * (packet.MTU + packet.HeaderBytes))
	if got := a.QueuedBytes(packet.PrioData); got != want {
		t.Fatalf("queued %d bytes, want %d", got, want)
	}
	if got := a.TotalQueuedBytes(); got != want {
		t.Fatalf("total queued %d bytes, want %d", got, want)
	}
	b.SendPFC(packet.PrioData, false)
	sim.RunAll()
	if got := a.TotalQueuedBytes(); got != 0 {
		t.Fatalf("queue not drained: %d bytes left", got)
	}
}

func TestOnDeparture(t *testing.T) {
	sim := engine.New(1)
	a, _, _, _ := pair(sim, 40*simtime.Gbps, 250*simtime.Nanosecond)
	var departed []*packet.Packet
	var departAt simtime.Time
	a.OnDeparture = func(p *packet.Packet) { departed = append(departed, p); departAt = sim.Now() }
	a.Enqueue(packet.NewData(1, packet.FiveTuple{}, 0, packet.MTU, false))
	sim.RunAll()
	if len(departed) != 1 {
		t.Fatal("OnDeparture not invoked")
	}
	// Departure is at serialization end, before propagation.
	if departAt != 312400 {
		t.Fatalf("departed at %v, want 312.4ns", departAt)
	}
}

func TestFIFORing(t *testing.T) {
	var f fifo
	if !f.empty() || f.pop() != nil {
		t.Fatal("zero fifo should be empty")
	}
	var pkts []*packet.Packet
	for i := 0; i < 100; i++ {
		p := packet.NewData(1, packet.FiveTuple{}, int64(i), 10, false)
		pkts = append(pkts, p)
		f.push(p)
	}
	// Interleave pops and pushes to exercise wraparound.
	for i := 0; i < 50; i++ {
		if got := f.pop(); got != pkts[i] {
			t.Fatalf("pop %d returned wrong packet", i)
		}
	}
	for i := 100; i < 200; i++ {
		p := packet.NewData(1, packet.FiveTuple{}, int64(i), 10, false)
		pkts = append(pkts, p)
		f.push(p)
	}
	for i := 50; i < 200; i++ {
		if got := f.pop(); got != pkts[i] {
			t.Fatalf("pop %d returned wrong packet (wraparound)", i)
		}
	}
	if !f.empty() {
		t.Fatal("fifo should be empty after draining")
	}
}

func TestConnectPanics(t *testing.T) {
	sim := engine.New(1)
	s := &sink{sim: sim}
	a := NewPort(sim, "a", 0, simtime.Gbps, s)
	b := NewPort(sim, "b", 0, simtime.Gbps, s)
	c := NewPort(sim, "c", 0, simtime.Gbps, s)
	Connect(sim, a, b, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	Connect(sim, a, c, 0)
}

func TestDRRSharesBandwidth(t *testing.T) {
	sim := engine.New(1)
	a, b, _, sb := pair(sim, 40*simtime.Gbps, 0)
	_ = b
	a.EnableDRR(2 * packet.MaxFrameBytes)
	// Two data classes, both backlogged with equal-size packets: DRR must
	// interleave them ~1:1 even though class 4 would strictly dominate 3.
	for i := 0; i < 100; i++ {
		p3 := packet.NewData(1, packet.FiveTuple{}, int64(i), packet.MTU, false)
		p3.Priority = 3
		p4 := packet.NewData(2, packet.FiveTuple{}, int64(i), packet.MTU, false)
		p4.Priority = 4
		a.Enqueue(p3)
		a.Enqueue(p4)
	}
	sim.RunAll()
	if len(sb.got) != 200 {
		t.Fatalf("delivered %d, want 200", len(sb.got))
	}
	// Count class shares in the first half of deliveries.
	counts := map[uint8]int{}
	for _, p := range sb.got[:100] {
		counts[p.Priority]++
	}
	if counts[3] < 40 || counts[4] < 40 {
		t.Fatalf("DRR shares skewed: %v", counts)
	}
}

func TestDRRControlStillStrict(t *testing.T) {
	sim := engine.New(1)
	a, _, _, sb := pair(sim, 40*simtime.Gbps, 0)
	a.EnableDRR(2 * packet.MaxFrameBytes)
	for i := 0; i < 5; i++ {
		a.Enqueue(packet.NewData(1, packet.FiveTuple{}, int64(i), packet.MTU, false))
	}
	cnp := packet.NewCNP(2, packet.FiveTuple{})
	a.Enqueue(cnp)
	sim.RunAll()
	// The CNP (control class) must overtake all queued data except the
	// frame already serializing.
	if sb.got[1] != cnp {
		t.Fatalf("control frame delivered at position != 1 under DRR")
	}
}

func TestStrictPriorityStillDefault(t *testing.T) {
	sim := engine.New(1)
	a, _, _, sb := pair(sim, 40*simtime.Gbps, 0)
	// Without EnableDRR, class 4 strictly beats class 3.
	first := packet.NewData(9, packet.FiveTuple{}, 0, 100, false) // serializes first
	a.Enqueue(first)
	for i := 0; i < 10; i++ {
		p3 := packet.NewData(1, packet.FiveTuple{}, int64(i), packet.MTU, false)
		p3.Priority = 3
		p4 := packet.NewData(2, packet.FiveTuple{}, int64(i), packet.MTU, false)
		p4.Priority = 4
		a.Enqueue(p3)
		a.Enqueue(p4)
	}
	sim.RunAll()
	for i := 1; i <= 10; i++ {
		if sb.got[i].Priority != 4 {
			t.Fatalf("position %d is class %d; strict priority violated", i, sb.got[i].Priority)
		}
	}
}

func TestDRRQuantumFloor(t *testing.T) {
	sim := engine.New(1)
	a, _, _, _ := pair(sim, 40*simtime.Gbps, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("sub-frame quantum did not panic")
		}
	}()
	a.EnableDRR(100)
}

func TestLossInjection(t *testing.T) {
	sim := engine.New(3)
	a, _, _, sb := pair(sim, 40*simtime.Gbps, 0)
	l := a.Peer().Peer() // silly but the link is private; use Connect's return in new code
	_ = l
	// Reconstruct: use a fresh pair with the returned link.
	sa2, sb2 := &sink{sim: sim}, &sink{sim: sim}
	p1 := NewPort(sim, "p1", 0, 40*simtime.Gbps, sa2)
	p2 := NewPort(sim, "p2", 0, 40*simtime.Gbps, sb2)
	lk := Connect(sim, p1, p2, 0)
	lk.SetLossRate(0.5)
	for i := 0; i < 2000; i++ {
		p1.Enqueue(packet.NewData(1, packet.FiveTuple{}, int64(i), 100, false))
	}
	sim.RunAll()
	got := len(sb2.got)
	if got < 800 || got > 1200 {
		t.Fatalf("with 50%% loss delivered %d of 2000", got)
	}
	if lk.Lost()+int64(got) != 2000 {
		t.Fatalf("conservation: lost %d + delivered %d != 2000", lk.Lost(), got)
	}
	// PFC frames are never dropped (RunAll drains past the pause expiry,
	// so check receipt rather than the transient paused state).
	for i := 0; i < 20; i++ {
		p2.SendPFC(3, true)
	}
	sim.RunAll()
	if p1.Stats.PauseRx != 20 {
		t.Fatalf("received %d of 20 PFC frames; control exemption broken", p1.Stats.PauseRx)
	}
	_ = a
	_ = sb
}

// TestConnectSeedsNoLossStream: a link with no loss rate never draws a
// loss decision, so Connect builds no random source for it, and neither
// does turning loss off.
func TestConnectSeedsNoLossStream(t *testing.T) {
	sim := engine.New(1)
	a, b := NewPort(sim, "a", 0, simtime.Gbps, &sink{sim: sim}), NewPort(sim, "b", 0, simtime.Gbps, &sink{sim: sim})
	l := Connect(sim, a, b, 0)
	l.SetLossRate(0)
	if l.lossRng[0] != nil || l.lossRng[1] != nil {
		t.Fatal("a lossless link seeded a loss stream")
	}
}

// TestLateLossRateDrawsSeededStream: loss turned on after Connect, and
// after lossless traffic in both directions, drops exactly the frames
// each direction's stream, seeded by lossStreamSeed from the simulation
// seed and the direction ID, picks. The directions draw independently.
func TestLateLossRateDrawsSeededStream(t *testing.T) {
	const rate, n = 0.3, 400
	sim := engine.New(11)
	pair(sim, 40*simtime.Gbps, 0) // another link first: nonzero direction IDs
	sa, sb := &sink{sim: sim}, &sink{sim: sim}
	a, b := NewPort(sim, "a", 0, 40*simtime.Gbps, sa), NewPort(sim, "b", 0, 40*simtime.Gbps, sb)
	l := Connect(sim, a, b, simtime.Microsecond)
	var dropped [2][]int64
	l.OnDrop = func(from *Port, p *packet.Packet, r DropReason) {
		if r != DropRandomLoss {
			t.Fatalf("drop reason %v, want %v", r, DropRandomLoss)
		}
		d := 0
		if from == b {
			d = 1
		}
		dropped[d] = append(dropped[d], p.PSN)
	}
	send := func(from int64) {
		for i := from; i < from+n; i++ {
			a.Enqueue(packet.NewData(1, packet.FiveTuple{}, i, 100, false))
			b.Enqueue(packet.NewData(2, packet.FiveTuple{}, i, 100, false))
		}
		sim.RunAll()
	}
	send(0)
	if len(sa.got) != n || len(sb.got) != n {
		t.Fatalf("lossless phase delivered %d and %d of %d", len(sb.got), len(sa.got), n)
	}
	l.SetLossRate(rate)
	send(n)
	for d := range dropped {
		ref := sim.NewStream(lossStreamSeed(sim.Seed(), l.dirID[d]))
		var want []int64
		for i := int64(n); i < 2*n; i++ {
			if ref.Float64() < rate {
				want = append(want, i)
			}
		}
		if !slices.Equal(dropped[d], want) {
			t.Errorf("direction %d dropped PSNs %v, want %v", d, dropped[d], want)
		}
	}
	if len(dropped[0]) == 0 || len(dropped[1]) == 0 {
		t.Fatal("no frame dropped: the measurement exercised nothing")
	}
}

// TestFlapWatermark pins the in-flight flap kill. Frames on the wire
// when the link goes down die even though it is back up before they
// would arrive; a frame sent while down is lost on entry; frames sent
// after the flap arrive, as does a frame sent after a second flap with
// nothing in flight. Both ends of the link run on one simulator.
func TestFlapWatermark(t *testing.T) {
	t.Run("local", flapScenario)
}

func flapScenario(t *testing.T) {
	const us = simtime.Microsecond
	sim := engine.New(1)
	a := NewPort(sim.Model(), "a", 0, 40*simtime.Gbps, &sink{sim: sim})
	sb := &sink{sim: sim}
	b := NewPort(sim.Model(), "b", 0, 40*simtime.Gbps, sb)
	l := Connect(sim, a, b, 10*us)
	drops := map[DropReason][]int64{}
	l.OnDrop = func(_ *Port, p *packet.Packet, r DropReason) { drops[r] = append(drops[r], p.PSN) }

	send := func(psns ...int64) {
		for _, psn := range psns {
			a.Enqueue(packet.NewData(1, packet.FiveTuple{}, psn, packet.MTU, false))
		}
	}
	script := []struct {
		at simtime.Time
		do func()
	}{
		{0, func() { send(0, 1, 2) }},                      // arrive ~10.3–10.9 µs
		{simtime.Time(2 * us), func() { l.SetDown(true) }}, // all three in flight
		{simtime.Time(2500 * simtime.Nanosecond), func() { send(3) }},
		{simtime.Time(3 * us), func() { l.SetDown(false) }},
		{simtime.Time(4 * us), func() { send(4, 5) }},
		{simtime.Time(20 * us), func() { l.SetDown(true); l.SetDown(false) }},
		{simtime.Time(21 * us), func() { send(6) }},
	}
	for _, step := range script {
		sim.Run(step.at)
		step.do()
	}
	sim.Run(simtime.Time(100 * us))

	var got []int64
	for _, p := range sb.got {
		got = append(got, p.PSN)
	}
	if want := []int64{4, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("delivered PSNs %v, want %v", got, want)
	}
	if want := []int64{0, 1, 2}; !slices.Equal(drops[DropFlapEpoch], want) {
		t.Errorf("flap-killed PSNs %v, want %v", drops[DropFlapEpoch], want)
	}
	if want := []int64{3}; !slices.Equal(drops[DropLinkDown], want) {
		t.Errorf("dropped-on-entry PSNs %v, want %v", drops[DropLinkDown], want)
	}
	if l.FaultDrops() != 4 || l.InFlightBytes() != 0 {
		t.Errorf("fault drops %d, in flight %d bytes; want 4 and 0", l.FaultDrops(), l.InFlightBytes())
	}
}
