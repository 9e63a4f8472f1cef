package dcqcn

import "testing"

// TestQuickstart exercises the documented package example: two flows
// fair-share a 40G bottleneck.
func TestQuickstart(t *testing.T) {
	sim := NewStarNetwork(1, 3, DefaultOptions())
	recv := sim.Host("H3").NodeID()
	a := sim.Host("H1").OpenFlow(recv)
	b := sim.Host("H2").OpenFlow(recv)
	doneA, doneB := false, false
	a.PostMessage(10e6, func(Completion) { doneA = true })
	b.PostMessage(10e6, func(Completion) { doneB = true })
	sim.RunFor(20 * Millisecond)
	if !doneA || !doneB {
		t.Fatal("transfers incomplete")
	}
	if sim.TotalDrops() != 0 {
		t.Fatal("drops under PFC")
	}
	if sim.Switch("SW").EcnMarked == 0 {
		t.Fatal("no ECN marks under 2:1 incast")
	}
}

func TestFacadeParams(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MarkingProbability(0) != 0 {
		t.Fatal("marking law broken through facade")
	}
	if StrawmanParams().ByteCounter != 150e3 {
		t.Fatal("strawman params wrong")
	}
}

func TestFacadeBufferPlan(t *testing.T) {
	plan := PlanBuffers(Arista7050QX32(), 8)
	if plan.Headroom != 22400 {
		t.Fatalf("headroom %d, want paper's 22.4KB", plan.Headroom)
	}
	if !plan.Feasible {
		t.Fatal("paper's plan must be feasible")
	}
}

func TestFacadeFluid(t *testing.T) {
	cfg := DefaultFluidConfig()
	cfg.Duration = 20 * Millisecond
	res, err := SolveFluid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Time) == 0 {
		t.Fatal("no fluid samples")
	}
	fp, err := FluidEquilibrium(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fp.P <= 0 || fp.P >= 0.01 {
		t.Fatalf("equilibrium p %g out of the paper's <1%% range", fp.P)
	}
}

func TestOptionsCombinators(t *testing.T) {
	// PFC-only star: no CNPs anywhere, PAUSE appears under incast.
	sim := NewStarNetwork(2, 4, DefaultOptions().WithPFCOnly())
	recv := sim.Host("H4").NodeID()
	for _, h := range []string{"H1", "H2", "H3"} {
		sim.Host(h).OpenFlow(recv).PostMessage(30e6, nil)
	}
	sim.RunFor(15 * Millisecond)
	if sim.Host("H4").CNPsSent() != 0 {
		t.Fatal("PFC-only receiver generated CNPs")
	}
	if sim.Switch("SW").PauseSent == 0 {
		t.Fatal("no PAUSE under 3:1 line-rate incast")
	}

	// Without PFC, the same incast drops.
	lossy := NewStarNetwork(3, 4, DefaultOptions().WithPFCOnly().WithoutPFC())
	recv2 := lossy.Host("H4").NodeID()
	for _, h := range []string{"H1", "H2", "H3"} {
		lossy.Host(h).OpenFlow(recv2).PostMessage(30e6, nil)
	}
	lossy.RunFor(15 * Millisecond)
	if lossy.TotalDrops() == 0 {
		t.Fatal("no drops without PFC at line rate")
	}
}

func TestReactionPointInspection(t *testing.T) {
	sim := NewStarNetwork(4, 3, DefaultOptions())
	recv := sim.Host("H3").NodeID()
	a := sim.Host("H1").OpenFlow(recv)
	b := sim.Host("H2").OpenFlow(recv)
	a.PostMessage(50e6, nil)
	b.PostMessage(50e6, nil)
	sim.RunFor(5 * Millisecond)
	rp := a.ReactionPoint()
	if rp == nil {
		t.Fatal("DCQCN flow should expose its RP")
	}
	if !rp.Active() {
		t.Fatal("RP should be rate-limited under 2:1 incast")
	}
	if rp.Alpha() <= 0 || rp.Alpha() > 1 {
		t.Fatalf("alpha %g out of range", rp.Alpha())
	}
	if a.CurrentRate() >= LineRate40G {
		t.Fatal("flow should be below line rate under congestion")
	}

	// PFC-only flows have no RP.
	pfc := NewStarNetwork(5, 2, DefaultOptions().WithPFCOnly())
	f := pfc.Host("H1").OpenFlow(pfc.Host("H2").NodeID())
	if f.ReactionPoint() != nil {
		t.Fatal("fixed-rate flow should have no RP")
	}
}

func TestSamplingHelpers(t *testing.T) {
	sim := NewStarNetwork(6, 3, DefaultOptions())
	recv := sim.Host("H3").NodeID()
	sim.Host("H1").OpenFlow(recv).PostMessage(20e6, nil)
	sim.Host("H2").OpenFlow(recv).PostMessage(20e6, nil)
	samples := 0
	maxQ := int64(0)
	stop := sim.Every(100*Microsecond, func(Time) {
		samples++
		if q := sim.QueueLength("SW", 2); q > maxQ {
			maxQ = q
		}
	})
	sim.RunFor(5 * Millisecond)
	stop()
	before := samples
	sim.RunFor(5 * Millisecond)
	if samples != before {
		t.Fatal("ticker did not stop")
	}
	if samples != 50 {
		t.Fatalf("got %d samples, want 50", samples)
	}
	if maxQ == 0 {
		t.Fatal("bottleneck queue never observed above zero")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		sim := NewTestbedNetwork(7, DefaultOptions().WithECMPSeed(3))
		recv := sim.Host("H41").NodeID()
		for _, h := range []string{"H11", "H21", "H31"} {
			sim.Host(h).OpenFlow(recv).PostMessage(5e6, nil)
		}
		sim.RunFor(10 * Millisecond)
		return sim.Switch("T4").Forwarded
	}
	if run() != run() {
		t.Fatal("identical seeds produced different runs")
	}
}

func TestFacadeFatTree(t *testing.T) {
	sim := NewFatTreeNetwork(8, 4, DefaultOptions())
	if len(sim.HostNames()) != 16 {
		t.Fatalf("k=4 fat tree has %d hosts, want 16", len(sim.HostNames()))
	}
	f := sim.Host("P1E1H1").OpenFlow(sim.Host("P4E2H2").NodeID())
	done := false
	f.PostMessage(2e6, func(Completion) { done = true })
	sim.RunFor(20 * Millisecond)
	if !done {
		t.Fatal("fat-tree transfer incomplete")
	}
}

func TestFacadeLossRate(t *testing.T) {
	sim := NewStarNetwork(10, 2, DefaultOptions())
	sim.SetLossRate(0.01)
	f := sim.Host("H1").OpenFlow(sim.Host("H2").NodeID())
	done := false
	f.PostMessage(2e6, func(Completion) { done = true })
	sim.RunFor(100 * Millisecond)
	if !done {
		t.Fatal("lossy transfer incomplete")
	}
	if f.Stats().Retransmits == 0 {
		t.Fatal("1% loss produced no retransmits")
	}
}

func TestFacadeUplinkOf(t *testing.T) {
	sim := NewTestbedNetwork(11, DefaultOptions())
	f := sim.Host("H11").OpenFlow(sim.Host("H41").NodeID())
	port := sim.UplinkOf("T1", f)
	if port < 0 {
		t.Fatal("no uplink decision for a routable flow")
	}
}
