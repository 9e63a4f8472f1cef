package cc

import (
	"testing"

	"dcqcn/internal/packet"
	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

// TestDCTCPRateLaw pins the control law: clean windows add RAI, marked
// windows cut proportionally to alpha/2, and the rate stays within
// [MinRate, LineRate].
func TestDCTCPRateLaw(t *testing.T) {
	p := *dctcpDefaults(testLineRate).(*DCTCPParams)
	c := NewDCTCPRate(p)

	// A fully marked window cuts.
	c.OnAck(AckSample{Packets: 100, Marked: 100, PayloadBytes: p.WindowBytes})
	if c.Rate() >= p.LineRate {
		t.Fatalf("rate %v did not cut after fully marked window", c.Rate())
	}
	if c.Alpha() == 0 {
		t.Fatal("alpha did not move")
	}
	afterCut := c.Rate()

	// A clean window adds RAI.
	c.OnAck(AckSample{Packets: 100, Marked: 0, PayloadBytes: p.WindowBytes})
	if want := afterCut + p.RAI; c.Rate() != want {
		t.Fatalf("rate %v after clean window, want %v", c.Rate(), want)
	}

	// Sub-window ACKs accumulate without deciding.
	before := c.Rate()
	c.OnAck(AckSample{Packets: 1, Marked: 1, PayloadBytes: 1000})
	if c.Rate() != before {
		t.Fatal("sub-window ACK moved the rate")
	}

	// Repeated fully marked windows converge to MinRate, never below.
	for i := 0; i < 10000; i++ {
		c.OnAck(AckSample{Packets: 100, Marked: 100, PayloadBytes: p.WindowBytes})
	}
	if c.Rate() < p.MinRate {
		t.Fatalf("rate %v fell below MinRate %v", c.Rate(), p.MinRate)
	}
	if c.Rate() != p.MinRate {
		t.Fatalf("rate %v did not converge to MinRate %v", c.Rate(), p.MinRate)
	}

	// Repeated clean windows recover to line rate, never above.
	for i := 0; i < 100000; i++ {
		c.OnAck(AckSample{Packets: 100, Marked: 0, PayloadBytes: p.WindowBytes})
	}
	if c.Rate() != p.LineRate {
		t.Fatalf("rate %v did not recover to line rate %v", c.Rate(), p.LineRate)
	}
	if c.Stats.Cuts == 0 || c.Stats.Increases == 0 || c.Stats.Windows == 0 {
		t.Fatalf("stats not maintained: %+v", c.Stats)
	}
}

// TestDCTCPRateListener pins eager rate notification: the listener fires
// exactly when the stored rate changes.
func TestDCTCPRateListener(t *testing.T) {
	p := *dctcpDefaults(testLineRate).(*DCTCPParams)
	c := NewDCTCPRate(p)
	var got []simtime.Rate
	c.SetRateListener(func(r simtime.Rate) { got = append(got, r) })

	c.OnAck(AckSample{Packets: 10, Marked: 10, PayloadBytes: p.WindowBytes})
	if len(got) != 1 || got[0] != c.Rate() {
		t.Fatalf("listener calls %v, want one call with %v", got, c.Rate())
	}
	// At line rate a clean window is clamped back to line rate — but the
	// cut above moved us off it, so the increase notifies again.
	c.OnAck(AckSample{Packets: 10, Marked: 0, PayloadBytes: p.WindowBytes})
	if len(got) != 2 {
		t.Fatalf("listener calls %d, want 2", len(got))
	}
}

// TestSwitchAssistHintCut pins the occupancy→cut mapping: a hint at QMin
// cuts by MinCut, at or beyond QMax by MaxCut, and between by linear
// interpolation.
func TestSwitchAssistHintCut(t *testing.T) {
	p := *switchAssistDefaults(testLineRate).(*SwitchAssistParams)
	cut := func(q int64) float64 {
		c := NewSwitchAssist(p, &simtest.Clock{})
		defer c.Stop()
		before := c.Rate()
		c.OnSwitchHint(SwitchHint{QueueBytes: q})
		return 1 - float64(c.Rate())/float64(before)
	}
	approx := func(got, want float64) bool { d := got - want; return d < 1e-9 && d > -1e-9 }
	if got := cut(p.QMin); !approx(got, p.MinCut) {
		t.Errorf("cut at QMin = %g, want %g", got, p.MinCut)
	}
	if got := cut(p.QMax); !approx(got, p.MaxCut) {
		t.Errorf("cut at QMax = %g, want %g", got, p.MaxCut)
	}
	if got := cut(2 * p.QMax); !approx(got, p.MaxCut) {
		t.Errorf("cut beyond QMax = %g, want clamp to %g", got, p.MaxCut)
	}
	mid := (p.QMin + p.QMax) / 2
	if got, want := cut(mid), (p.MinCut+p.MaxCut)/2; !approx(got, want) {
		t.Errorf("cut at midpoint = %g, want %g", got, want)
	}
	c := NewSwitchAssist(p, &simtest.Clock{})
	defer c.Stop()
	c.OnCNP() // must be ignored: hints replace CNPs
	if c.Rate() != testLineRate {
		t.Errorf("OnCNP moved the rate to %v", c.Rate())
	}
}

// TestSwitchAssistSampler pins the fabric side: silent below QMin, one
// hint per HintBytes of a flow's traffic above it, counters per flow.
func TestSwitchAssistSampler(t *testing.T) {
	p := switchAssistDefaults(testLineRate).(*SwitchAssistParams)
	sample := switchAssistSampler(p, FabricContext{Switch: "SW"})
	mk := func(flow packet.FlowID) *packet.Packet {
		pk := &packet.Packet{Type: packet.Data, Flow: flow}
		pk.Size = 1000
		return pk
	}

	// Below QMin: silent regardless of volume.
	for i := 0; i < 200; i++ {
		if h := sample(mk(1), p.QMin); h != nil {
			t.Fatal("sampler emitted below QMin")
		}
	}

	// Above QMin: exactly one hint per HintBytes per flow.
	var hints int
	n := int(p.HintBytes/1000) * 3
	for i := 0; i < n; i++ {
		if h := sample(mk(2), p.QMax); h != nil {
			hints++
			if h.Type != packet.Hint {
				t.Fatalf("sampler emitted %v, want Hint", h.Type)
			}
			if h.HintQueueBytes() != p.QMax {
				t.Fatalf("hint occupancy %d, want %d", h.HintQueueBytes(), p.QMax)
			}
		}
	}
	if hints != 3 {
		t.Fatalf("hints = %d over 3x HintBytes, want 3", hints)
	}

	// Another flow counts independently.
	if h := sample(mk(3), p.QMax); h != nil {
		t.Fatal("fresh flow hinted after one packet")
	}
}

// TestPolicyTable pins rule matching: first match wins, Hi <= Lo means
// unbounded above, rates clamp to [MinRate, LineRate], and unmatched
// signals do nothing — including a signal the table never names, which
// the NIC still delivers because Policy implements its reactor.
func TestPolicyTable(t *testing.T) {
	p := PolicyParams{
		Rules: []PolicyRule{
			{Signal: SignalECNFraction, Lo: 0, Hi: 0.5, Action: ActionAddMbps, Arg: 100},
			{Signal: SignalECNFraction, Lo: 0.5, Hi: 0, Action: ActionScale, Arg: 0.5},
			{Signal: SignalRTTMicros, Lo: 100, Hi: 0, Action: ActionSetGbps, Arg: 1},
		},
		MinRate:  10 * simtime.Mbps,
		LineRate: testLineRate,
	}
	if got, want := p.caps(), CapAckECN|CapRTT; got != want {
		t.Fatalf("derived capabilities %v, want %v", got, want)
	}
	c := NewPolicy(p)

	// Additive rule at line rate clamps (no change).
	c.OnAck(AckSample{Packets: 10, Marked: 0})
	if c.Rate() != testLineRate {
		t.Fatalf("rate %v, want clamp at line rate", c.Rate())
	}
	// Unbounded-above rule: 100% marks halve the rate.
	c.OnAck(AckSample{Packets: 10, Marked: 10})
	if c.Rate() != testLineRate/2 {
		t.Fatalf("rate %v after 100%% marks, want %v", c.Rate(), testLineRate/2)
	}
	// RTT rule: 150us sets 1 Gbps.
	c.OnRTT(150 * simtime.Microsecond)
	if c.Rate() != 1*simtime.Gbps {
		t.Fatalf("rate %v after slow RTT, want 1Gbps", c.Rate())
	}
	// RTT below the bucket: unmatched, no move.
	c.OnRTT(50 * simtime.Microsecond)
	if c.Rate() != 1*simtime.Gbps {
		t.Fatalf("rate %v after fast RTT, want unchanged", c.Rate())
	}
	// Empty ACKs carry no fraction signal.
	before := c.Applied
	c.OnAck(AckSample{})
	if c.Applied != before {
		t.Fatal("empty AckSample applied a rule")
	}
	// A switch hint: no rule names the signal, so nothing moves.
	c.OnSwitchHint(SwitchHint{QueueBytes: 1 << 20})
	if c.Rate() != 1*simtime.Gbps || c.Applied != before {
		t.Fatalf("switch hint moved rate to %v (applied %d -> %d), want unchanged", c.Rate(), before, c.Applied)
	}
	// Repeated halving clamps at MinRate.
	for i := 0; i < 100; i++ {
		c.OnAck(AckSample{Packets: 10, Marked: 10})
	}
	if c.Rate() != p.MinRate {
		t.Fatalf("rate %v, want MinRate clamp %v", c.Rate(), p.MinRate)
	}
}

// TestPolicyDefaultCaps pins that the default table derives exactly
// CapAckECN: a policy that never references CNPs runs with the receiver
// NP off (topology.ApplyCC).
func TestPolicyDefaultCaps(t *testing.T) {
	sel, err := Select("policy", testLineRate)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Caps(); got != CapAckECN {
		t.Fatalf("default policy caps %v, want %v", got, CapAckECN)
	}
}

// TestUnwrap pins adapter unwrapping through the registry: the DCQCN
// selection exposes its *core.RP, fixed exposes the FixedRate itself.
func TestUnwrap(t *testing.T) {
	sel, err := Select("dcqcn", testLineRate)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := sel.Algorithm.New(sel.Params, &simtest.Clock{})
	defer ctrl.Stop()
	inner := Unwrap(ctrl)
	if inner == ctrl {
		t.Fatal("dcqcn adapter did not unwrap")
	}
	if _, ok := inner.(Unwrapper); ok {
		t.Fatal("Unwrap stopped before the innermost controller")
	}
}
