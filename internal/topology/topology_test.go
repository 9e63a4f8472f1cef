package topology

import (
	"fmt"
	"testing"

	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

func TestTestbedShape(t *testing.T) {
	n := NewTestbed(1, DefaultOptions())
	if len(n.Switches) != 10 {
		t.Fatalf("switches %d, want 10 (4 ToR + 4 leaf + 2 spine)", len(n.Switches))
	}
	if len(n.Hosts) != 20 {
		t.Fatalf("hosts %d, want 20 (5 per ToR)", len(n.Hosts))
	}
	for _, name := range []string{"T1", "T2", "T3", "T4", "L1", "L2", "L3", "L4", "S1", "S2"} {
		n.Switch(name) // panics if missing
	}
	n.Host("H11")
	n.Host("H45")
}

func TestCrossPodTransfer(t *testing.T) {
	n := NewTestbed(2, DefaultOptions())
	src, dst := n.Host("H11"), n.Host("H41")
	var done *rocev2.Completion
	f := src.OpenFlow(dst.ID)
	f.PostMessage(4*1000*1000, func(c rocev2.Completion) { done = &c })
	n.Sim.Run(simtime.Time(20 * simtime.Millisecond))
	if done == nil {
		t.Fatal("cross-pod transfer did not complete")
	}
	if thr := done.Throughput(); thr < 30*simtime.Gbps {
		t.Fatalf("cross-pod goodput %v, want near line rate", thr)
	}
	// The path crosses a spine: exactly one of S1/S2 forwarded data.
	s1, s2 := n.Switch("S1").Stats.Forwarded, n.Switch("S2").Stats.Forwarded
	if s1+s2 == 0 {
		t.Fatal("no spine forwarded the cross-pod flow")
	}
}

func TestIntraTorStaysLocal(t *testing.T) {
	n := NewTestbed(3, DefaultOptions())
	src, dst := n.Host("H11"), n.Host("H12")
	f := src.OpenFlow(dst.ID)
	f.PostMessage(1000*1000, nil)
	n.Sim.Run(simtime.Time(10 * simtime.Millisecond))
	for _, name := range []string{"L1", "L2", "S1", "S2"} {
		if fw := n.Switch(name).Stats.Forwarded; fw != 0 {
			t.Fatalf("intra-ToR traffic leaked to %s (%d packets)", name, fw)
		}
	}
	if f.Stats().Completions != 1 {
		t.Fatal("intra-ToR transfer incomplete")
	}
}

func TestECMPGroupsExist(t *testing.T) {
	n := NewTestbed(4, DefaultOptions())
	// From T1, a remote pod host must be reachable via both uplinks: sweep
	// source ports and observe both choices.
	t1 := n.Switch("T1")
	dst := n.Host("H41").ID
	seen := map[int]bool{}
	for sp := uint16(0); sp < 64; sp++ {
		ft := packet.FiveTuple{Src: n.Host("H11").ID, Dst: dst, SrcPort: sp, DstPort: 4791, Proto: 17}
		port, ok := t1.RouteChoice(ft)
		if !ok {
			t.Fatal("no route from T1 to remote host")
		}
		seen[port] = true
	}
	if len(seen) != 2 {
		t.Fatalf("T1 uses %d uplinks for ECMP, want 2", len(seen))
	}
}

func TestManyToOneAcrossPods(t *testing.T) {
	// The Fig. 3-style pattern: H11, H21, H31 and H42 all send to H41;
	// everything must arrive without drops (PFC) and the run must stay
	// deterministic across rebuilds with the same seed.
	run := func() (int64, int64) {
		n := NewTestbed(5, DefaultOptions())
		recv := n.Host("H41")
		var total int64
		for _, h := range []string{"H11", "H21", "H31", "H42"} {
			f := n.Host(h).OpenFlow(recv.ID)
			f.PostMessage(2*1000*1000, nil)
		}
		n.Sim.Run(simtime.Time(30 * simtime.Millisecond))
		for _, sw := range n.Switches {
			total += sw.Stats.Drops
		}
		return total, int64(recv.Stats.DataReceived)
	}
	drops1, rx1 := run()
	drops2, rx2 := run()
	if drops1 != 0 {
		t.Fatalf("%d drops with PFC enabled", drops1)
	}
	if rx1 != rx2 || drops1 != drops2 {
		t.Fatalf("nondeterministic runs: rx %d vs %d", rx1, rx2)
	}
	wantPkts := int64(4) * (2*1000*1000/packet.MTU + 1)
	if rx1 < wantPkts-4 {
		t.Fatalf("receiver saw %d data packets, want ~%d", rx1, wantPkts)
	}
}

func TestStar(t *testing.T) {
	n := NewStar(6, 4, DefaultOptions())
	if len(n.Hosts) != 4 || len(n.Switches) != 1 {
		t.Fatalf("star shape wrong: %d hosts, %d switches", len(n.Hosts), len(n.Switches))
	}
	f := n.Host("H1").OpenFlow(n.Host("H2").ID)
	f.PostMessage(1000*1000, nil)
	n.Sim.Run(simtime.Time(10 * simtime.Millisecond))
	if f.Stats().Completions != 1 {
		t.Fatal("star transfer incomplete")
	}
}

func TestDifferentSeedsChangeECMP(t *testing.T) {
	choice := func(base uint64) int {
		opts := DefaultOptions()
		opts.ECMPSeedBase = base
		n := NewTestbed(1, opts)
		ft := packet.FiveTuple{Src: n.Host("H11").ID, Dst: n.Host("H41").ID, SrcPort: 5, DstPort: 4791, Proto: 17}
		p, _ := n.Switch("T1").RouteChoice(ft)
		return p
	}
	first := choice(0)
	for base := uint64(1); base < 16; base++ {
		if choice(base) != first {
			return // seeds influence placement, as required
		}
	}
	t.Fatal("ECMP choice identical across 16 seed bases")
}

func TestDuplicateNamesPanic(t *testing.T) {
	n := NewNetwork(1, DefaultOptions())
	n.AddSwitch("X", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate switch name did not panic")
		}
	}()
	n.AddSwitch("X", 4)
}

func TestFatTreeShape(t *testing.T) {
	const k = 4
	n := NewFatTree(1, k, DefaultOptions())
	wantHosts := k * k * k / 4
	if len(n.Hosts) != wantHosts {
		t.Fatalf("hosts %d, want %d", len(n.Hosts), wantHosts)
	}
	wantSwitches := k*k + k*k/4 // k pods x (k/2+k/2) + (k/2)^2 cores
	if len(n.Switches) != wantSwitches {
		t.Fatalf("switches %d, want %d", len(n.Switches), wantSwitches)
	}
}

func TestFatTreeConnectivity(t *testing.T) {
	n := NewFatTree(2, 4, DefaultOptions())
	// Cross-pod transfer must complete at near line rate and traverse a
	// core switch.
	src, dst := n.Host("P1E1H1"), n.Host("P3E2H2")
	f := src.OpenFlow(dst.ID)
	f.PostMessage(4*1000*1000, nil)
	n.Sim.Run(simtime.Time(20 * simtime.Millisecond))
	if f.Stats().Completions != 1 {
		t.Fatal("cross-pod fat-tree transfer incomplete")
	}
	var coreForwarded int64
	for name, sw := range n.Switches {
		if name[0] == 'C' {
			coreForwarded += sw.Stats.Forwarded
		}
	}
	if coreForwarded == 0 {
		t.Fatal("cross-pod traffic bypassed the cores")
	}

	// Intra-edge traffic stays local.
	g := n.Host("P1E1H1").OpenFlow(n.Host("P1E1H2").ID)
	before := coreForwarded
	g.PostMessage(1000*1000, nil)
	n.Sim.Run(simtime.Time(40 * simtime.Millisecond))
	var after int64
	for name, sw := range n.Switches {
		if name[0] == 'C' {
			after += sw.Stats.Forwarded
		}
	}
	if after != before {
		t.Fatal("intra-edge traffic leaked to cores")
	}
}

func TestFatTreeECMPWidth(t *testing.T) {
	// From an edge switch, a cross-pod destination must be reachable via
	// both aggregation uplinks (k/2 = 2 paths at the first hop).
	n := NewFatTree(3, 4, DefaultOptions())
	edge := n.Switch("P1E1")
	dst := n.Host("P2E1H1").ID
	seen := map[int]bool{}
	for sp := uint16(0); sp < 64; sp++ {
		ft := packet.FiveTuple{Src: n.Host("P1E1H1").ID, Dst: dst, SrcPort: sp, DstPort: 4791, Proto: 17}
		if port, ok := edge.RouteChoice(ft); ok {
			seen[port] = true
		}
	}
	if len(seen) != 2 {
		t.Fatalf("edge uses %d uplinks, want 2", len(seen))
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd k did not panic")
		}
	}()
	NewFatTree(1, 3, DefaultOptions())
}

// TestFatTreeIncastLossless runs a 6:1 incast across the pods of a
// k=4 fat tree. No golden digest runs NewFatTree, so the run's digest
// and each core switch's forwarded count are pinned: a change to how
// the builder wires or numbers the tree must not move them.
func TestFatTreeIncastLossless(t *testing.T) {
	n := NewFatTree(4, 4, DefaultOptions())
	recv := n.Host("P4E2H2")
	for _, h := range []string{"P1E1H1", "P1E2H1", "P2E1H1", "P2E2H1", "P3E1H1", "P3E2H1"} {
		n.Host(h).OpenFlow(recv.ID).PostMessage(3*1000*1000, nil)
	}
	n.Sim.Run(simtime.Time(30 * simtime.Millisecond))
	if got, want := n.Sim.Digest().String(), "172614:d732e945c45e0ac2"; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
	for core, want := range []int64{6000, 0, 0, 6846} {
		name := fmt.Sprintf("C%d", core+1)
		if got := n.Switch(name).Stats.Forwarded; got != want {
			t.Errorf("%s forwarded %d frames, want %d", name, got, want)
		}
	}
	var drops int64
	for _, sw := range n.Switches {
		drops += sw.Stats.Drops
	}
	if drops != 0 {
		t.Fatalf("%d drops in fat-tree incast under PFC", drops)
	}
	if recv.Stats.DataReceived == 0 {
		t.Fatal("no data arrived")
	}
}
