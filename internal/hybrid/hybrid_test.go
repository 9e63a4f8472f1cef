package hybrid

import (
	"math"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/fluid"
	"dcqcn/internal/nic"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// star builds a small single-switch rig with an optional background
// armer, mirroring how scenarios receive the substrate.
func star(seed int64, hosts int, bg func(*topology.Network)) *topology.Network {
	opts := topology.DefaultOptions()
	opts.NIC.Transport.WindowPackets = 16384
	opts.Background = bg
	return topology.NewStar(seed, hosts, opts)
}

// greedy keeps one foreground packet flow backlogged.
func greedy(net *topology.Network, src, dst string) *nic.Flow {
	f := net.Host(src).OpenFlow(net.Host(dst).ID)
	var post func()
	post = func() {
		f.PostMessage(1_000_000, func(rocev2.Completion) { post() })
	}
	post()
	return f
}

// TestZeroFlowsInert pins the passivity contract: a substrate with no
// effective flows must not install switch hooks, must not schedule
// events, and must leave the run digest bit-identical to an unarmed
// run — BgFlows=0 arming is free.
func TestZeroFlowsInert(t *testing.T) {
	run := func(bg func(*topology.Network)) engine.Digest {
		net := star(7, 3, bg)
		greedy(net, "H1", "H3")
		net.Sim.Run(simtime.Time(2 * simtime.Millisecond))
		return net.Sim.Digest()
	}
	var sub *Substrate
	armed := run(func(net *topology.Network) {
		sub = AttachBackground(net, DefaultConfig(), 0)
	})
	unarmed := run(nil)
	if sub == nil {
		t.Fatal("armer did not run")
	}
	if sub.Active() {
		t.Fatal("zero-flow substrate reports active")
	}
	if sub.TotalFlows() != 0 || sub.Ports() != 0 || sub.Steps() != 0 {
		t.Fatalf("zero-flow substrate did work: %s, steps=%d", sub, sub.Steps())
	}
	if armed != unarmed {
		t.Fatalf("zero-flow arming shifted the digest: %s vs %s", armed, unarmed)
	}

	// Explicit Attach with only zero-flow specs is equally inert.
	netZ := star(7, 3, nil)
	subZ := Attach(netZ, DefaultConfig(), []ClassSpec{{Src: "H1", Dst: "H2", Flows: 0}})
	if subZ.Active() {
		t.Fatal("zero-flow class attached")
	}
	for _, name := range netZ.SwitchNames() {
		sw := netZ.Switch(name)
		if sw.FluidEgress != nil || sw.FluidOccupied != nil {
			t.Fatalf("switch %s got fluid hooks from an inert substrate", name)
		}
	}
}

// TestCouplingMonotonic is the fluid↔packet coupling gate: on a
// micro-topology where one foreground flow and one fluid background
// class share a single egress port, raising the background flow count
// must raise foreground ECN marking and depress foreground goodput,
// monotonically.
func TestCouplingMonotonic(t *testing.T) {
	type point struct {
		marks   int64
		ratePct float64 // foreground bytes vs the unloaded run
	}
	var base float64
	run := func(bgFlows int) point {
		var sub *Substrate
		net := star(11, 3, func(net *topology.Network) {
			sub = Attach(net, DefaultConfig(), []ClassSpec{
				{Src: "H2", Dst: "H3", Flows: bgFlows},
			})
		})
		fg := greedy(net, "H1", "H3")
		net.Sim.Run(simtime.Time(20 * simtime.Millisecond))
		if bgFlows > 0 {
			if !sub.Active() {
				t.Fatalf("bg=%d: substrate inactive", bgFlows)
			}
			if sub.Steps() == 0 {
				t.Fatalf("bg=%d: integrator never ran", bgFlows)
			}
		}
		sent := float64(fg.Stats().BytesSent)
		if bgFlows == 0 {
			base = sent
		}
		return point{
			marks:   net.Switch("SW").Stats.EcnMarked,
			ratePct: 100 * sent / base,
		}
	}

	loads := []int{0, 16, 256}
	var pts []point
	for _, n := range loads {
		pts = append(pts, run(n))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].marks <= pts[i-1].marks {
			t.Errorf("bg=%d: %d marks, not above bg=%d's %d — fluid load does not raise marking",
				loads[i], pts[i].marks, loads[i-1], pts[i-1].marks)
		}
		if pts[i].ratePct >= pts[i-1].ratePct {
			t.Errorf("bg=%d: foreground at %.1f%%, not below bg=%d's %.1f%% — fluid load does not depress goodput",
				loads[i], pts[i].ratePct, loads[i-1], pts[i-1].ratePct)
		}
	}
	// "Measurably": the heavy point must cost the foreground flow at
	// least 20% of its unloaded goodput.
	if last := pts[len(pts)-1].ratePct; last > 80 {
		t.Errorf("bg=%d only depressed foreground to %.1f%% of unloaded — coupling too weak", loads[len(loads)-1], last)
	}
}

// TestDeterminism pins that the substrate is deterministic (same seed,
// same digest) and that it genuinely participates in the event stream
// (its digest differs from an unarmed run's).
func TestDeterminism(t *testing.T) {
	run := func(bgFlows int) engine.Digest {
		net := star(23, 4, func(net *topology.Network) {
			AttachBackground(net, DefaultConfig(), bgFlows)
		})
		greedy(net, "H1", "H4")
		net.Sim.Run(simtime.Time(5 * simtime.Millisecond))
		return net.Sim.Digest()
	}
	a, b := run(1000), run(1000)
	if a != b {
		t.Fatalf("same-seed hybrid runs diverged: %s vs %s", a, b)
	}
	if off := run(0); off == a {
		t.Fatal("hybrid substrate left no trace in the digest — integrator not scheduled?")
	}
}

// TestCostIndependentOfFlows pins the scaling contract structurally:
// the per-step state is per class and per port, so a class of a million
// flows costs exactly what a class of ten costs.
func TestCostIndependentOfFlows(t *testing.T) {
	shape := func(bgFlows int) [3]int {
		var sub *Substrate
		net := star(5, 4, func(net *topology.Network) {
			sub = AttachBackground(net, DefaultConfig(), bgFlows)
		})
		_ = net
		return [3]int{sub.Classes(), sub.Ports(), sub.TotalFlows()}
	}
	small, large := shape(10), shape(1_000_000)
	if small[0] != large[0] || small[1] != large[1] {
		t.Fatalf("state shape grew with flow count: %v vs %v", small, large)
	}
	if large[2] != 1_000_000 {
		t.Fatalf("large substrate models %d flows, want 1000000", large[2])
	}
}

// TestAttachBackgroundPlacement checks the default placement: flows
// split near-evenly over host pairs, and every class found a path.
func TestAttachBackgroundPlacement(t *testing.T) {
	var sub *Substrate
	star(13, 5, func(net *topology.Network) {
		sub = AttachBackground(net, DefaultConfig(), 13)
	})
	if got := sub.TotalFlows(); got != 13 {
		t.Fatalf("placed %d flows, want 13", got)
	}
	if got := sub.Classes(); got != 5 {
		t.Fatalf("%d classes on 5 hosts, want 5", got)
	}
	if sub.Ports() == 0 {
		t.Fatal("no fluid ports placed")
	}
	if sub.BackgroundRate() <= 0 {
		t.Fatal("background offered rate is zero at reset")
	}
}

// TestOverloadSaturates drives a deliberately impossible load (1M flows
// on one 40G port) and checks the substrate saturates instead of
// blowing up: queues at their cap, finite class rates at the MinRate
// floor, and the switch still forwarding foreground packets.
func TestOverloadSaturates(t *testing.T) {
	var sub *Substrate
	net := star(17, 3, func(net *topology.Network) {
		sub = Attach(net, DefaultConfig(), []ClassSpec{
			{Src: "H2", Dst: "H3", Flows: 1_000_000},
		})
	})
	fg := greedy(net, "H1", "H3")
	net.Sim.Run(simtime.Time(10 * simtime.Millisecond))

	sw := net.Switch("SW")
	cap := sw.Config().Spec.BufferBytes / (2 * int64(sw.NumPorts()))
	for port := 0; port < sw.NumPorts(); port++ {
		if q := sub.FluidQueueBytes("SW", port); q > cap {
			t.Fatalf("port %d fluid queue %d exceeds cap %d", port, q, cap)
		}
	}
	if r := sub.ClassRate(0); r <= 0 || r > 40*simtime.Gbps {
		t.Fatalf("class rate %v out of range under overload", r)
	}
	// The class floor is MinRate; a million flows therefore pin the
	// class near its floor.
	minRate := DefaultConfig().Params.MinRate
	if r := sub.ClassRate(0); r > 2*minRate {
		t.Fatalf("overloaded class rate %v, want pinned near MinRate %v", r, minRate)
	}
	if fg.Stats().BytesSent == 0 {
		t.Fatal("foreground flow fully starved — PFC/admission coupling broken")
	}
}

// Background flow counts of tickRig's two regimes.
const (
	overloadFlows    = 100_000
	unsaturatedFlows = 8
)

// tickRig is a four-host star with one backlogged foreground flow and
// bgFlows background flows, one AttachBackground class per host, each
// on its own 40 G port. At overloadFlows every class sits at MinRate
// with its path marking probability at 1, so a class's delayed inputs
// repeat step after step; at unsaturatedFlows (two flows a class) the
// classes keep oscillating, and their inputs almost never repeat.
func tickRig(bgFlows int) (*topology.Network, *Substrate) {
	var sub *Substrate
	net := star(3, 4, func(net *topology.Network) {
		sub = AttachBackground(net, DefaultConfig(), bgFlows)
	})
	greedy(net, "H1", "H4")
	return net, sub
}

// TestDriveReuseMatchesStep is the shadow test of the drive reuse. At
// every integration step of an overloaded and an unsaturated rig, each
// class's (RC, RT, α) must equal bit for bit a shadow state stepped with
// the plain law.Step from the same delayed inputs. It also counts the
// class-steps whose delayed inputs repeat the previous step's bit for
// bit, the ones that may reuse their drive: the overloaded rig must
// reuse on almost every step and the unsaturated one recompute on
// almost every step, so both paths run.
func TestDriveReuseMatchesStep(t *testing.T) {
	const steps = 2000
	for _, tc := range []struct {
		name  string
		flows int
		check func(reused, total int) bool
	}{
		{"overload", overloadFlows, func(r, n int) bool { return r >= n*9/10 }},
		{"unsaturated", unsaturatedFlows, func(r, n int) bool { return r <= n/20 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, sub := tickRig(tc.flows)
			type key struct{ p, rc uint64 }
			keyOf := func(p, rc float64) key { return key{math.Float64bits(p), math.Float64bits(rc)} }
			shadow := make([]fluid.FlowState, len(sub.classes))
			last := make([]key, len(sub.classes))
			for i := range sub.classes {
				c := &sub.classes[i]
				shadow[i] = c.state
				last[i] = keyOf(c.pHist[0], c.rcHist[0])
			}
			pDel := make([]float64, len(sub.classes))
			rcDel := make([]float64, len(sub.classes))
			reused := 0
			for step := 1; step <= steps; step++ {
				for i := range sub.classes {
					c := &sub.classes[i]
					h := int(sub.steps % uint64(len(c.pHist)))
					pDel[i], rcDel[i] = c.pHist[h], c.rcHist[h]
				}
				net.Sim.Run(simtime.Time(simtime.Duration(step) * sub.cfg.Step))
				if sub.Steps() != uint64(step) {
					t.Fatalf("after running to step %d the substrate took %d steps", step, sub.Steps())
				}
				for i := range sub.classes {
					sub.law.Step(&shadow[i], sub.law.Delay(pDel[i]), rcDel[i], sub.dt)
					if got, want := sub.classes[i].state, shadow[i]; !sameState(got, want) {
						t.Fatalf("step %d, class %d (pDel %g, rcDel %g): state %+v, plain Step gives %+v",
							step, i, pDel[i], rcDel[i], got, want)
					}
					if k := keyOf(pDel[i], rcDel[i]); k == last[i] {
						reused++
					} else {
						last[i] = k
					}
				}
			}
			total := steps * len(sub.classes)
			t.Logf("%d of %d class-steps repeat their delayed inputs", reused, total)
			if !tc.check(reused, total) {
				t.Errorf("%d of %d class-steps repeat their delayed inputs: the rig does not exercise the path it is for",
					reused, total)
			}
		})
	}
}

// sameState reports whether two flow states are equal bit for bit.
func sameState(a, b fluid.FlowState) bool {
	return math.Float64bits(a.RC) == math.Float64bits(b.RC) &&
		math.Float64bits(a.RT) == math.Float64bits(b.RT) &&
		math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha)
}

// BenchmarkTick measures one integration step of each tickRig regime
// after a 1 ms warm-up. The steps run back to back, outside the engine,
// so the packet ports drain nothing between them.
func BenchmarkTick(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flows int
	}{{"overload", overloadFlows}, {"unsaturated", unsaturatedFlows}} {
		b.Run(bc.name, func(b *testing.B) {
			net, sub := tickRig(bc.flows)
			net.Sim.Run(simtime.Time(simtime.Millisecond))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub.tick(0)
			}
		})
	}
}
