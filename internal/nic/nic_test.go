package nic

import (
	"slices"
	"testing"

	"dcqcn/internal/cc"
	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

// testbed wires n NICs to one switch with routes installed.
type testbed struct {
	sim  *engine.Sim
	sw   *fabric.Switch
	nics []*NIC
}

func newTestbed(seed int64, n int, nicCfg Config, swCfg fabric.Config) *testbed {
	sim := engine.New(seed)
	sw := fabric.New(sim, 1000, "sw", n, swCfg)
	tb := &testbed{sim: sim, sw: sw}
	for i := 0; i < n; i++ {
		nc := New(sim, packet.NodeID(i+1), "nic", nicCfg)
		link.Connect(sim, nc.Port(), sw.Port(i), 500*simtime.Nanosecond)
		sw.AddRoute(nc.ID, i)
		tb.nics = append(tb.nics, nc)
	}
	return tb
}

func TestSingleFlowLineRate(t *testing.T) {
	tb := newTestbed(1, 2, DefaultConfig(), fabric.DefaultConfig())
	var done *rocev2.Completion
	flow := tb.nics[0].OpenFlow(2)
	const size = 4 * 1000 * 1000 // 4 MB
	flow.PostMessage(size, func(c rocev2.Completion) { done = &c })
	tb.sim.Run(simtime.Time(20 * simtime.Millisecond))
	if done == nil {
		t.Fatal("4MB transfer did not complete in 20ms")
	}
	thr := done.Throughput()
	// Goodput is bounded by line rate less header overhead (~3.97G of the
	// 40G), and an uncongested flow should achieve close to it.
	if thr < 34*simtime.Gbps || thr > 40*simtime.Gbps {
		t.Fatalf("single flow goodput %v, want ~38Gbps", thr)
	}
	// No congestion: no CNPs anywhere.
	if tb.nics[0].Stats.CNPsReceived != 0 {
		t.Fatalf("uncongested flow received %d CNPs", tb.nics[0].Stats.CNPsReceived)
	}
	if tb.sw.Stats.Drops != 0 {
		t.Fatal("drops on an uncongested path")
	}
}

func TestTwoFlowsConvergeToFairShare(t *testing.T) {
	tb := newTestbed(2, 3, DefaultConfig(), fabric.DefaultConfig())
	// Both senders run long transfers into NIC 3.
	f1 := tb.nics[0].OpenFlow(3)
	f2 := tb.nics[1].OpenFlow(3)
	const chunk = 10 * 1000 * 1000
	// Keep both flows backlogged by chaining messages.
	var repost func(f *Flow) func(rocev2.Completion)
	repost = func(f *Flow) func(rocev2.Completion) {
		return func(rocev2.Completion) { f.PostMessage(chunk, repost(f)) }
	}
	f1.PostMessage(chunk, repost(f1))
	f2.PostMessage(chunk, repost(f2))
	// First 50 ms cover the initial alpha-decay transient (alpha starts
	// at 1 and decays with g=1/256 every 55 µs); measure the second half.
	tb.sim.Run(simtime.Time(50 * simtime.Millisecond))
	base1, base2 := f1.Stats().PayloadAcked, f2.Stats().PayloadAcked
	tb.sim.Run(simtime.Time(100 * simtime.Millisecond))

	// Congestion control must have engaged.
	if tb.nics[0].Stats.CNPsReceived == 0 || tb.nics[1].Stats.CNPsReceived == 0 {
		t.Fatalf("CNPs: %d, %d — DCQCN never engaged",
			tb.nics[0].Stats.CNPsReceived, tb.nics[1].Stats.CNPsReceived)
	}
	// Paced rates near fair share (20G each), within 30%.
	r1, r2 := float64(f1.CurrentRate()), float64(f2.CurrentRate())
	if r1 < 10e9 || r1 > 30e9 || r2 < 10e9 || r2 > 30e9 {
		t.Fatalf("rates %v / %v, want near 20G fair share", f1.CurrentRate(), f2.CurrentRate())
	}
	// Goodput over the steady-state half roughly equal (within 2x).
	b1, b2 := f1.Stats().PayloadAcked-base1, f2.Stats().PayloadAcked-base2
	if b1 > 2*b2 || b2 > 2*b1 {
		t.Fatalf("unfair goodput %d vs %d", b1, b2)
	}
	// Lossless under PFC.
	if tb.sw.Stats.Drops != 0 {
		t.Fatalf("%d drops with PFC enabled", tb.sw.Stats.Drops)
	}
	// The bottleneck stays near full utilization in steady state
	// (goodput capacity after headers is ~38.4 Gb/s).
	total := simtime.RateFromBytes(b1+b2, 50*simtime.Millisecond)
	if total < 30*simtime.Gbps {
		t.Fatalf("aggregate steady-state goodput %v, want > 30Gbps", total)
	}
}

func TestPFCOnlyBaselineSendsNoCNPs(t *testing.T) {
	nicCfg := DefaultConfig()
	nicCfg.Controller = FixedRateFactory(40 * simtime.Gbps)
	nicCfg.NPEnabled = false
	swCfg := fabric.DefaultConfig()
	swCfg.Marking.KMin = 1 << 40 // ECN off
	swCfg.Marking.KMax = 1 << 40
	tb := newTestbed(3, 3, nicCfg, swCfg)
	f1 := tb.nics[0].OpenFlow(3)
	f2 := tb.nics[1].OpenFlow(3)
	f1.PostMessage(20*1000*1000, nil)
	f2.PostMessage(20*1000*1000, nil)
	tb.sim.Run(simtime.Time(30 * simtime.Millisecond))
	if tb.nics[2].Stats.CNPsSent != 0 {
		t.Fatalf("PFC-only receiver sent %d CNPs", tb.nics[2].Stats.CNPsSent)
	}
	if tb.sw.Stats.Drops != 0 {
		t.Fatal("PFC-only must still be lossless")
	}
	// Both flows complete: 20MB each over a shared 40G link needs ~8.4ms.
	if f1.Stats().Completions != 1 || f2.Stats().Completions != 1 {
		t.Fatalf("completions %d/%d, want 1/1", f1.Stats().Completions, f2.Stats().Completions)
	}
	// Incast at line rate must have triggered PFC.
	if tb.sw.Stats.PauseSent == 0 {
		t.Fatal("expected PAUSE under 2:1 incast at line rate")
	}
}

func TestFlowRateRecoversAfterCongestion(t *testing.T) {
	tb := newTestbed(4, 3, DefaultConfig(), fabric.DefaultConfig())
	f1 := tb.nics[0].OpenFlow(3)
	f2 := tb.nics[1].OpenFlow(3)
	f1.PostMessage(200*1000*1000, nil) // long flow
	f2.PostMessage(5*1000*1000, nil)   // short competing flow
	tb.sim.Run(simtime.Time(100 * simtime.Millisecond))
	if f2.Stats().Completions != 1 {
		t.Fatal("short flow did not complete")
	}
	// Long after the competitor finished, the survivor should be back at
	// (or near) line rate.
	if f1.CurrentRate() < 35*simtime.Gbps {
		t.Fatalf("survivor rate %v, want recovered to ~line rate", f1.CurrentRate())
	}
}

type qcnStub struct {
	rocev2.RateController
	got []float64
}

func (q *qcnStub) SetRateListener(func(simtime.Rate)) {}
func (q *qcnStub) OnQCNFeedback(fb float64)           { q.got = append(q.got, fb) }

func TestQCNFeedbackDispatch(t *testing.T) {
	stub := &qcnStub{RateController: rocev2.FixedRate(40 * simtime.Gbps)}
	cfg := DefaultConfig()
	cfg.Controller = func(core.Clock) cc.Controller { return stub }
	tb := newTestbed(5, 2, cfg, fabric.DefaultConfig())
	f := tb.nics[0].OpenFlow(2)
	// Hand-deliver a QCN feedback frame to the sender NIC.
	fb := packet.NewQCNFb(f.ID(), f.Tuple(), -0.5)
	tb.nics[0].HandlePacket(fb, nil)
	if len(stub.got) != 1 || stub.got[0] != -0.5 {
		t.Fatalf("QCN feedback not dispatched: %v", stub.got)
	}
}

func TestCNPPacingLimitsRate(t *testing.T) {
	// With CNPPacing of 50us and two flows marking simultaneously, CNPs
	// must be spaced at least 50us apart NIC-wide.
	cfg := DefaultConfig()
	cfg.CNPPacing = 50 * simtime.Microsecond
	swCfg := fabric.DefaultConfig()
	swCfg.Marking.KMin = 3000
	swCfg.Marking.KMax = 3000
	swCfg.Marking.PMax = 1
	tb := newTestbed(6, 3, cfg, swCfg)
	f1 := tb.nics[0].OpenFlow(3)
	f2 := tb.nics[1].OpenFlow(3)
	f1.PostMessage(50*1000*1000, nil)
	f2.PostMessage(50*1000*1000, nil)
	horizon := 20 * simtime.Millisecond
	tb.sim.Run(simtime.Time(horizon))
	sent := tb.nics[2].Stats.CNPsSent
	if sent == 0 {
		t.Fatal("no CNPs under forced marking")
	}
	maxPossible := int64(horizon/(50*simtime.Microsecond)) + 1
	if sent > maxPossible {
		t.Fatalf("%d CNPs exceed pacing bound %d", sent, maxPossible)
	}
}

func TestReceiverStatsAccessors(t *testing.T) {
	tb := newTestbed(7, 2, DefaultConfig(), fabric.DefaultConfig())
	f := tb.nics[0].OpenFlow(2)
	f.PostMessage(1000, nil)
	tb.sim.Run(simtime.Time(simtime.Millisecond))
	rs, ok := tb.nics[1].ReceiverStats(f.ID())
	if !ok || rs.PacketsInOrder != 1 {
		t.Fatalf("receiver stats: ok=%v %+v", ok, rs)
	}
	if _, _, ok := tb.nics[1].NPStats(f.ID()); !ok {
		t.Fatal("NP stats missing")
	}
	if _, ok := tb.nics[1].ReceiverStats(12345); ok {
		t.Fatal("stats for unknown flow")
	}
}

func TestFlowClose(t *testing.T) {
	tb := newTestbed(8, 2, DefaultConfig(), fabric.DefaultConfig())
	f := tb.nics[0].OpenFlow(2)
	f.PostMessage(1000*1000, nil)
	tb.sim.Run(simtime.Time(100 * simtime.Microsecond))
	f.Close()
	// Simulation drains without panics and no further sends happen.
	before := tb.nics[0].Stats.BytesOut
	tb.sim.Run(simtime.Time(5 * simtime.Millisecond))
	if tb.nics[0].Stats.BytesOut != before {
		t.Fatal("closed flow kept sending")
	}
}

func TestSlowReceiverGeneratesPFC(t *testing.T) {
	// The receiver NIC drains at 10G while the sender pushes 40G: its
	// receive buffer crosses the PFC threshold and pauses the ToR, which
	// back-pressures the sender. Nothing is lost and goodput tracks the
	// receive pipeline, not the wire.
	cfg := DefaultConfig()
	recvCfg := cfg
	recvCfg.RxProcessingRate = 10 * simtime.Gbps

	sim := engine.New(21)
	sw := fabric.New(sim, 1000, "sw", 2, fabric.DefaultConfig())
	sender := New(sim, 1, "sender", cfg)
	receiver := New(sim, 2, "receiver", recvCfg)
	link.Connect(sim, sender.Port(), sw.Port(0), 500*simtime.Nanosecond)
	link.Connect(sim, receiver.Port(), sw.Port(1), 500*simtime.Nanosecond)
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)

	// The first transfer absorbs the initial line-rate burst (DCQCN cuts
	// hard when the slow receiver backs the fabric up) and the recovery
	// ramp; the second measures steady state.
	var done *rocev2.Completion
	f := sender.OpenFlow(2)
	const size = 10 * 1000 * 1000
	f.PostMessage(size, func(rocev2.Completion) {
		f.PostMessage(size, func(c rocev2.Completion) { done = &c })
	})
	sim.Run(simtime.Time(100 * simtime.Millisecond))

	if receiver.Stats.RxPauses == 0 {
		t.Fatal("slow receiver never sent PFC")
	}
	if done == nil {
		t.Fatal("transfers did not complete")
	}
	thr := done.Throughput()
	if thr > 11*simtime.Gbps {
		t.Fatalf("steady goodput %v exceeds the 10G receive pipeline", thr)
	}
	if thr < 6*simtime.Gbps {
		t.Fatalf("steady goodput %v far below the 10G receive pipeline", thr)
	}
	if sw.Stats.Drops != 0 {
		t.Fatal("drops despite PFC from the NIC")
	}
}

func TestFastReceiverSendsNoPFC(t *testing.T) {
	tb := newTestbed(22, 2, DefaultConfig(), fabric.DefaultConfig())
	f := tb.nics[0].OpenFlow(2)
	f.PostMessage(10*1000*1000, nil)
	tb.sim.Run(simtime.Time(20 * simtime.Millisecond))
	if tb.nics[1].Stats.RxPauses != 0 {
		t.Fatal("line-rate receiver generated PFC")
	}
}

func TestDataPriorityClass(t *testing.T) {
	// Flows on a non-default class must carry it on the wire and the
	// receiver must still ACK/consume them.
	cfg := DefaultConfig()
	cfg.Transport.Priority = 4
	tb := newTestbed(23, 2, cfg, fabric.DefaultConfig())
	f := tb.nics[0].OpenFlow(2)
	done := false
	f.PostMessage(1000*1000, func(rocev2.Completion) { done = true })
	tb.sim.Run(simtime.Time(10 * simtime.Millisecond))
	if !done {
		t.Fatal("transfer on class 4 incomplete")
	}
	// The switch accounted the traffic on class 4, not the default 3.
	if q := tb.sw.IngressQueue(0, 4); q != 0 {
		t.Fatalf("class-4 ingress not drained: %d", q)
	}
	if tb.sw.Stats.Forwarded == 0 {
		t.Fatal("nothing forwarded")
	}
}

func TestInvalidDataPriorityRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport.Priority = packet.PrioControl // collides with control
	defer func() {
		if recover() == nil {
			t.Fatal("control-class data priority did not panic")
		}
	}()
	_ = New(engine.New(1), 1, "bad", cfg)
}

// TestCloseDuringNackStormDrainsPending is the teardown-leak regression
// test: a flow closed in the middle of go-back-N recovery (a steady NACK
// storm from a lossy uplink) must leave nothing behind in the event
// queue. Before the stopped latch in rocev2.Sender, a late NACK arriving
// after Close would re-arm the RTO, and onRTO re-arms itself while data
// is pending — an eternally self-rescheduling event that keeps
// sim.Pending() above zero forever.
func TestCloseDuringNackStormDrainsPending(t *testing.T) {
	sim := engine.New(7)
	sw := fabric.New(sim, 1000, "sw", 2, fabric.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Transport.RTO = 500 * simtime.Microsecond
	var nics []*NIC
	var links []*link.Link
	for i := 0; i < 2; i++ {
		nc := New(sim, packet.NodeID(i+1), "nic", cfg)
		l := link.Connect(sim, nc.Port(), sw.Port(i), 500*simtime.Nanosecond)
		sw.AddRoute(nc.ID, i)
		nics = append(nics, nc)
		links = append(links, l)
	}
	// Drop every 5th data frame leaving the sender: enough to keep the
	// receiver NACKing continuously without starving the flow outright.
	senderPort := nics[0].Port()
	var nth int
	links[0].DropHook = func(from *link.Port, pkt *packet.Packet) bool {
		if from != senderPort || pkt.IsControl() {
			return false
		}
		nth++
		return nth%5 == 0
	}
	flow := nics[0].OpenFlow(2)
	flow.PostMessage(64*1000*1000, func(rocev2.Completion) {})
	sim.Run(simtime.Time(2 * simtime.Millisecond))

	st := flow.Stats()
	if st.NacksReceived == 0 {
		t.Fatal("no NACKs after 2ms on a 20% lossy link; storm never formed")
	}
	if st.Retransmits == 0 {
		t.Fatal("no retransmits mid-storm; recovery path not exercised")
	}
	flow.Close()
	atClose := flow.Stats()

	// Give in-flight frames and their (now-ignored) feedback ample time
	// to drain, covering many RTO periods. A leaked timer would still be
	// pending at the horizon; a healthy teardown leaves the queue empty.
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	if p := sim.Pending(); p != 0 {
		t.Fatalf("%d events still pending 48ms after Close; timer leak", p)
	}
	after := flow.Stats()
	if after.Timeouts != atClose.Timeouts {
		t.Fatalf("RTO fired after Close: %d -> %d timeouts", atClose.Timeouts, after.Timeouts)
	}
	if after.PacketsSent != atClose.PacketsSent {
		t.Fatalf("packets sent after Close: %d -> %d", atClose.PacketsSent, after.PacketsSent)
	}
}

// rttStub records every RTT sample the NIC dispatches to the controller.
type rttStub struct {
	rocev2.RateController
	samples []simtime.Duration
}

func (r *rttStub) SetRateListener(func(simtime.Rate)) {}
func (r *rttStub) OnRTT(d simtime.Duration)           { r.samples = append(r.samples, d) }

// TestRTTSamplingFiltersGoBackN is the regression test for RTT sampling
// under go-back-N: after a retransmission the receiver keeps re-ACKing
// duplicate PSNs, echoing a stale (or never-set, zero) SentAt stamp.
// Only a strictly newer echo may produce a sample, and a non-positive
// difference (a zero stamp) must be clamped rather than delivered as a
// negative RTT.
func TestRTTSamplingFiltersGoBackN(t *testing.T) {
	stub := &rttStub{RateController: rocev2.FixedRate(40 * simtime.Gbps)}
	cfg := DefaultConfig()
	cfg.Controller = func(core.Clock) cc.Controller { return stub }
	tb := newTestbed(6, 2, cfg, fabric.DefaultConfig())
	f := tb.nics[0].OpenFlow(2)

	us := func(n int64) simtime.Time { return simtime.Time(simtime.Duration(n) * simtime.Microsecond) }
	// PSN -1 acknowledges nothing (the flow has sent nothing), so the
	// transport treats every ACK as stale and only the RTT path runs.
	ack := func(sentAt simtime.Time) *packet.Packet {
		return &packet.Packet{Type: packet.Ack, Flow: f.ID(), PSN: -1, Size: 64, SentAt: sentAt}
	}
	deliver := func(at simtime.Time, p *packet.Packet) {
		tb.sim.At(at, func() { tb.nics[0].HandlePacket(p, nil) })
	}

	deliver(us(100), ack(us(90)))   // fresh echo: 10us sample
	deliver(us(110), ack(us(90)))   // duplicate-PSN re-ACK, same stamp: no sample
	deliver(us(120), ack(0))        // never-stamped retransmit echo: no sample
	deliver(us(130), ack(us(125)))  // newer echo: 5us sample
	deliver(us(140), ack(us(1000))) // echo from the "future" (skew): no negative sample
	tb.sim.Run(us(200))

	want := []simtime.Duration{10 * simtime.Microsecond, 5 * simtime.Microsecond}
	if len(stub.samples) != len(want) {
		t.Fatalf("RTT samples %v, want %v", stub.samples, want)
	}
	for i := range want {
		if stub.samples[i] != want[i] {
			t.Fatalf("RTT samples %v, want %v", stub.samples, want)
		}
	}
	for _, s := range stub.samples {
		if s <= 0 {
			t.Fatalf("non-positive RTT sample %v delivered", s)
		}
	}
}

// discard is a link.Receiver that drops what it is given.
type discard struct{}

func (discard) HandlePacket(*packet.Packet, *link.Port) {}

// TestOneRxRefresh: the receive pipeline's XOFF refresh follows the
// switch's rule. A slow receiver whose buffer goes XOFF, XON, XOFF
// within half a pause interval keeps one refresh chain: while the
// backlog stays above the threshold, XOFF goes out exactly every half
// interval after the last one, and no others.
func TestOneRxRefresh(t *testing.T) {
	const half = link.DefaultPauseDuration / 2
	cfg := DefaultConfig()
	cfg.RxProcessingRate = 10 * simtime.Gbps
	sim := engine.New(1)
	rx := New(sim, 2, "rx", cfg)
	feeder := link.NewPort(sim, "feeder", 0, cfg.LineRate, discard{})
	link.Connect(sim, feeder, rx.Port(), 500*simtime.Nanosecond)
	var xoff, xon []simtime.Time
	rx.Port().OnEnqueue = func(p *packet.Packet) {
		switch p.Type {
		case packet.Pause:
			xoff = append(xoff, sim.Now())
		case packet.Resume:
			xon = append(xon, sim.Now())
		}
	}
	// The feeder sends on a class the NIC's XOFF does not pause, so its
	// frames arrive exactly when sent. 60 frames at 40 Gb/s into the
	// 10 Gb/s pipeline cross the threshold (XOFF) and drain below it
	// (XON). At 40 µs the pipeline slows to one frame per 1.25 ms and 25
	// more frames cross the threshold again (XOFF); the backlog then
	// stays above it.
	tuple := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
	var psn int64
	burst := func(n int) {
		for i := 0; i < n; i++ {
			p := packet.NewData(1<<16, tuple, psn, packet.MTU, false)
			p.Priority = 1
			psn++
			feeder.Enqueue(p)
		}
	}
	burst(60)
	sim.At(simtime.Time(40*simtime.Microsecond), func() {
		rx.SetRxProcessingRate(10 * simtime.Mbps)
		burst(25)
	})
	sim.Run(simtime.Time(100 * simtime.Microsecond).Add(4*half + half/2))

	if len(xoff) < 2 || len(xon) != 1 || xon[0] < xoff[0] || xon[0] > xoff[1] || xoff[1].Sub(xoff[0]) >= half {
		t.Fatalf("want XOFF, XON, XOFF within half an interval: XOFFs at %v, XONs at %v", xoff, xon)
	}
	last := xoff[1]
	want := []simtime.Time{last.Add(half), last.Add(2 * half), last.Add(3 * half), last.Add(4 * half)}
	if got := xoff[2:]; !slices.Equal(got, want) {
		t.Fatalf("refresh XOFFs at %v, want one every half interval after the last XOFF: %v", got, want)
	}
	if got := rx.Stats.RxPauses; got != int64(len(xoff)) {
		t.Fatalf("RxPauses %d, want the %d XOFFs sent", got, len(xoff))
	}
}
