package invariant

import (
	"strings"
	"testing"

	"dcqcn/internal/cc"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// star builds a small routed star with default options and one open
// flow H1->H2 kept backlogged for the run.
func star(t *testing.T, hosts int) *topology.Network {
	t.Helper()
	return topology.NewStar(1, hosts, topology.DefaultOptions())
}

// TestCleanRunNoViolations arms the auditor on a healthy network and
// checks that real traffic exercises every check family without a
// single violation — and that the auditor's hooks really fired.
func TestCleanRunNoViolations(t *testing.T) {
	net := star(t, 3)
	aud := Attach(net)

	f := net.Host("H1").OpenFlow(net.Host("H2").ID)
	f.PostMessage(400*1000, nil)
	g := net.Host("H3").OpenFlow(net.Host("H2").ID)
	g.PostMessage(400*1000, nil)
	net.Sim.Run(simtime.Time(2 * simtime.Millisecond))

	if vs := aud.Final(); len(vs) != 0 {
		t.Fatalf("violations on a healthy run: %v", vs)
	}
	if aud.Checks() == 0 {
		t.Fatal("auditor recorded zero checks: hooks never fired")
	}
	aud.MustClean() // must not panic
}

// TestUnsolicitedXONFlagged injects the one PFC protocol breach a
// healthy model never produces — an XON with no pause asserted — and
// checks the pairing auditor catches it at the switch port.
func TestUnsolicitedXONFlagged(t *testing.T) {
	net := star(t, 2)
	aud := Attach(net)

	h := net.Host("H1")
	net.Sim.At(simtime.Time(10*simtime.Microsecond), func() {
		h.Port().SendPFC(h.DataPriority(), false) // XON out of nowhere
	})
	net.Sim.Run(simtime.Time(100 * simtime.Microsecond))

	vs := aud.Violations()
	if len(vs) == 0 {
		t.Fatal("unsolicited XON not flagged")
	}
	if vs[0].Check != "pfc-pairing" {
		t.Fatalf("violation %v, want pfc-pairing", vs[0])
	}
	if !strings.Contains(vs[0].Detail, "XON without a preceding XOFF") {
		t.Fatalf("unexpected detail: %s", vs[0].Detail)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustClean did not panic with recorded violations")
		}
		if !strings.Contains(r.(string), "pfc-pairing") {
			t.Fatalf("panic %q does not name the check", r)
		}
	}()
	aud.MustClean()
}

// TestPairedPFCClean drives real PFC — an incast deep enough to cross
// the switch's PAUSE threshold — and checks that properly paired
// XOFF/XON traffic stays violation-free while the pairing check runs.
func TestPairedPFCClean(t *testing.T) {
	// PFC-only senders: fixed line rate, ECN off, deep window — the
	// uncontrolled-RoCEv2 configuration that drives ingress queues
	// across the PAUSE threshold.
	opts := topology.DefaultOptions()
	opts.NIC.Transport.WindowPackets = 16384
	topology.ApplyCC(&opts, cc.Fixed(40*simtime.Gbps), true)
	net := topology.NewStar(1, 5, opts)
	aud := Attach(net)

	for _, src := range []string{"H1", "H2", "H3", "H4"} {
		f := net.Host(src).OpenFlow(net.Host("H5").ID)
		f.PostMessage(4*1000*1000, nil)
	}
	net.Sim.Run(simtime.Time(3 * simtime.Millisecond))

	if vs := aud.Final(); len(vs) != 0 {
		t.Fatalf("violations under paired PFC: %v", vs)
	}
	var pauses int64
	for _, name := range net.SwitchNames() {
		pauses += net.Switch(name).PauseSentTotal()
	}
	if pauses == 0 {
		t.Fatal("incast did not cross the PAUSE threshold; pairing path unexercised")
	}
}

// TestSecondRefreshChainFlagged plants a leaked XOFF-refresh chain: on
// a switch port whose ingress queue is paused, a second chain starts
// re-sending XOFF every half pause interval beside the switch's own
// refreshes. Its first XOFF follows the switch's by less than half an
// interval with no XON between, and the spacing rule reports it on that
// port.
func TestSecondRefreshChainFlagged(t *testing.T) {
	const half = link.DefaultPauseDuration / 2
	opts := topology.DefaultOptions()
	opts.NIC.Transport.WindowPackets = 16384
	topology.ApplyCC(&opts, cc.Fixed(40*simtime.Gbps), true)
	net := topology.NewStar(1, 5, opts)
	aud := Attach(net)
	sw := net.Switch(net.SwitchNames()[0])
	lastPFC := make([]packet.Type, sw.NumPorts())
	for i := range lastPFC {
		sw.Port(i).ChainOnEnqueue(func(p *packet.Packet) {
			if p.IsControl() {
				lastPFC[i] = p.Type
			}
		})
	}
	for _, src := range []string{"H1", "H2", "H3", "H4"} {
		f := net.Host(src).OpenFlow(net.Host("H5").ID)
		f.PostMessage(8*1000*1000, nil)
	}
	// Step until some switch port's last PFC frame was an XOFF: its
	// ingress queue is paused, and the switch's own refresh is pending.
	var port *link.Port
	now := simtime.Time(500 * simtime.Microsecond)
	for ; port == nil && now < simtime.Time(simtime.Millisecond); now = now.Add(simtime.Microsecond) {
		net.Sim.Run(now)
		for i, typ := range lastPFC {
			if typ == packet.Pause {
				port = sw.Port(i)
				break
			}
		}
	}
	if port == nil {
		t.Fatal("no switch port was pausing its sender: the incast never crossed the PAUSE threshold")
	}
	if vs := aud.Violations(); len(vs) != 0 {
		t.Fatalf("violations before the planted chain: %v", vs)
	}
	var chain func()
	chain = func() {
		port.SendPFC(packet.PrioData, true)
		net.Sim.After(half, chain)
	}
	net.Sim.At(now, chain)
	net.Sim.Run(now.Add(4 * half))

	vs := aud.Violations()
	if len(vs) == 0 {
		t.Fatal("a second refresh chain was not flagged")
	}
	for _, v := range vs {
		if v.Check != "xoff-spacing" || !strings.Contains(v.Detail, port.Name+" ") {
			t.Fatalf("violation %v, want xoff-spacing on %s", v, port.Name)
		}
	}
}
