package qcn_test

import (
	"testing"

	"dcqcn/internal/cc"
	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/link"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/qcn"
	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

func TestCPFeedbackSign(t *testing.T) {
	cfg := qcn.DefaultCPConfig()
	cp := qcn.NewCP(cfg, []packet.NodeID{1}, func() float64 { return 0 }) // always sample
	p := packet.NewData(1, packet.FiveTuple{Src: 1, Dst: 2}, 0, packet.MTU, false)

	// Queue far below equilibrium: Fb > 0, no feedback.
	if fb := cp.Sample(p, 0); fb != nil {
		t.Fatal("feedback generated with empty queue")
	}
	// Queue far above equilibrium: negative Fb, feedback generated.
	fb := cp.Sample(p, cfg.QEq*3)
	if fb == nil {
		t.Fatal("no feedback despite deep queue")
	}
	if fb.Type != packet.QCNFb {
		t.Fatalf("feedback type %v", fb.Type)
	}
	if fb.QCNFeedback() <= 0 || fb.QCNFeedback() > cfg.MaxFb {
		t.Fatalf("quantized feedback %g out of (0,%g]", fb.QCNFeedback(), cfg.MaxFb)
	}
	if fb.Tuple.Dst != 1 {
		t.Fatalf("feedback addressed to %d, want source 1", fb.Tuple.Dst)
	}
}

func TestCPL2Limitation(t *testing.T) {
	cfg := qcn.DefaultCPConfig()
	cp := qcn.NewCP(cfg, []packet.NodeID{1}, func() float64 { return 0 })
	remote := packet.NewData(2, packet.FiveTuple{Src: 99, Dst: 2}, 0, packet.MTU, false)
	if fb := cp.Sample(remote, cfg.QEq*3); fb != nil {
		t.Fatal("QCN CP generated feedback across an IP boundary")
	}
	if cp.Unreachable == 0 {
		t.Fatal("unreachable counter not incremented")
	}
	if cp.FeedbackSent != 0 {
		t.Fatal("feedback counter wrongly incremented")
	}
}

func TestRPCutsProportionally(t *testing.T) {
	clock := &simtest.Clock{}
	rp := qcn.NewRP(qcn.LineRateParams(40*simtime.Gbps), clock)
	if rp.Rate() != 40*simtime.Gbps {
		t.Fatal("QCN RP must start at line rate")
	}
	rp.OnQCNFeedback(63) // maximum feedback: cut by Gd*63 = 1/2
	want := 20 * simtime.Gbps
	if got := rp.Rate(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("rate after max feedback %v, want ~%v", got, want)
	}
	before := rp.Rate()
	rp.OnQCNFeedback(6.3) // small feedback: cut by ~5%
	if got := rp.Rate(); got < before*0.94 || got > before*0.96 {
		t.Fatalf("rate after small feedback %v, want ~95%% of %v", got, before)
	}
	// CNPs are foreign to QCN.
	rp.OnCNP()
	if rp.Feedbacks != 2 {
		t.Fatalf("feedback count %d", rp.Feedbacks)
	}
}

func TestRPRecovers(t *testing.T) {
	clock := &simtest.Clock{}
	rp := qcn.NewRP(qcn.LineRateParams(40*simtime.Gbps), clock)
	rp.OnQCNFeedback(63)
	clock.Advance(simtime.Duration(simtime.Second))
	if rp.Rate() != 40*simtime.Gbps {
		t.Fatalf("QCN RP did not recover to line rate: %v", rp.Rate())
	}
}

// qcnSelection resolves the registry's QCN baseline at 40 Gb/s: the
// reaction point on DCQCN's recovery constants with Gd·Fb_max = 1/2.
func qcnSelection(t *testing.T) cc.Selection {
	t.Helper()
	sel, err := cc.Select("qcn", 40*simtime.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestQCNControlsSingleSwitchIncast: end to end on one switch, QCN keeps
// the queue near QEq and the flows share the link.
func TestQCNControlsSingleSwitchIncast(t *testing.T) {
	sim := engine.New(1)
	swCfg := fabric.DefaultConfig()
	swCfg.Marking.KMin = 1 << 40 // no ECN: QCN only
	swCfg.Marking.KMax = 1 << 40
	sw := fabric.New(sim, 1000, "sw", 3, swCfg)
	nicCfg := nic.DefaultConfig()
	nicCfg.Controller = qcnSelection(t).Factory()
	nicCfg.NPEnabled = false
	var nics []*nic.NIC
	var ids []packet.NodeID
	dir := nic.NewDirectory()
	for i := 0; i < 3; i++ {
		h := nic.New(sim, packet.NodeID(i+1), "h", nicCfg, dir)
		link.Connect(sim, h.Port(), sw.Port(i), 500*simtime.Nanosecond)
		sw.AddRoute(h.ID, i)
		nics = append(nics, h)
		ids = append(ids, h.ID)
	}
	cp := qcn.NewCP(qcn.DefaultCPConfig(), ids, sim.Rand().Float64)
	sw.Sampler = cp.Sample

	f1 := nics[0].OpenFlow(3)
	f2 := nics[1].OpenFlow(3)
	f1.PostMessage(100*1000*1000, nil)
	f2.PostMessage(100*1000*1000, nil)
	sim.Run(simtime.Time(30 * simtime.Millisecond))

	if cp.FeedbackSent == 0 {
		t.Fatal("QCN CP never sent feedback under 2:1 incast")
	}
	r1 := cc.Unwrap(f1.Controller()).(*qcn.RP)
	if r1.Feedbacks == 0 {
		t.Fatal("QCN RP never received feedback")
	}
	// Rates must be pulled well below line rate.
	if f1.CurrentRate() > 35*simtime.Gbps && f2.CurrentRate() > 35*simtime.Gbps {
		t.Fatalf("QCN failed to control rates: %v, %v", f1.CurrentRate(), f2.CurrentRate())
	}
	if sw.Stats.Drops != 0 {
		t.Fatal("drops with PFC on")
	}
	// And the ingress PFC pressure should be far below the uncontrolled
	// case (sanity: both flows kept moving data).
	if f1.Stats().PacketsSent < 1000 || f2.Stats().PacketsSent < 1000 {
		t.Fatalf("flows starved under QCN: %d / %d packets",
			f1.Stats().PacketsSent, f2.Stats().PacketsSent)
	}
}

func TestFactoryProducesIndependentRPs(t *testing.T) {
	f := qcnSelection(t).Factory()
	clock := &simtest.Clock{}
	a, b := f(clock), f(clock)
	cc.Unwrap(a).(*qcn.RP).OnQCNFeedback(63)
	if b.Rate() != 40*simtime.Gbps {
		t.Fatal("controllers share state")
	}
}

func TestParamsShareDCQCNRecoveryConstants(t *testing.T) {
	p := qcn.LineRateParams(40 * simtime.Gbps)
	d := core.DefaultParams()
	if p.RateTimer != d.RateTimer || p.ByteCounter != d.ByteCounter || p.F != d.F {
		t.Fatal("QCN baseline should reuse the deployed recovery constants")
	}
}
