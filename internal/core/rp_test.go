package core

import (
	"math"
	"testing"

	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

func newRPUnderTest(p Params) (*RP, *simtest.Clock) {
	clock := &simtest.Clock{}
	return NewRP(p, clock), clock
}

func rateClose(a, b simtime.Rate) bool {
	return math.Abs(float64(a-b)) < 1e-3*math.Abs(float64(b))+1
}

func TestRPStartsAtLineRate(t *testing.T) {
	p := DefaultParams()
	rp, _ := newRPUnderTest(p)
	if rp.Rate() != p.LineRate {
		t.Fatalf("initial rate %v, want line rate (no slow start)", rp.Rate())
	}
	if rp.Active() {
		t.Fatal("fresh RP must not be rate limited")
	}
	if rp.Alpha() != 1 {
		t.Fatalf("initial alpha %g, want 1 (paper footnote 1)", rp.Alpha())
	}
}

func TestRPFirstCutHalvesRate(t *testing.T) {
	p := DefaultParams()
	rp, _ := newRPUnderTest(p)
	rp.OnCNP()
	// alpha starts at 1, so the first cut is RC(1 - 1/2) = C/2 (Eq. 1).
	if !rateClose(rp.Rate(), p.LineRate/2) {
		t.Fatalf("rate after first CNP %v, want %v", rp.Rate(), p.LineRate/2)
	}
	if !rateClose(rp.TargetRate(), p.LineRate) {
		t.Fatalf("target after first CNP %v, want line rate", rp.TargetRate())
	}
	wantAlpha := (1-p.G)*1 + p.G
	if math.Abs(rp.Alpha()-wantAlpha) > 1e-12 {
		t.Fatalf("alpha %g, want %g", rp.Alpha(), wantAlpha)
	}
	if !rp.Active() {
		t.Fatal("RP must be active after a CNP")
	}
}

func TestRPConsecutiveCuts(t *testing.T) {
	p := DefaultParams()
	rp, _ := newRPUnderTest(p)
	rc, alpha := float64(p.LineRate), 1.0
	for i := 0; i < 5; i++ {
		rp.OnCNP()
		rt := rc
		rc = rc * (1 - alpha/2)
		alpha = (1-p.G)*alpha + p.G
		if !rateClose(rp.Rate(), simtime.Rate(rc)) {
			t.Fatalf("cut %d: rate %v, want %v", i, rp.Rate(), simtime.Rate(rc))
		}
		if !rateClose(rp.TargetRate(), simtime.Rate(rt)) {
			t.Fatalf("cut %d: target %v, want %v", i, rp.TargetRate(), simtime.Rate(rt))
		}
	}
	if rp.Stats.CNPs != 5 {
		t.Fatalf("stats count %d cuts, want 5", rp.Stats.CNPs)
	}
}

func TestRPRateFloor(t *testing.T) {
	p := DefaultParams()
	p.G = 0.9 // keep alpha near 1 so cuts stay aggressive
	rp, _ := newRPUnderTest(p)
	for i := 0; i < 100; i++ {
		rp.OnCNP()
	}
	if rp.Rate() < p.MinRate {
		t.Fatalf("rate %v fell below floor %v", rp.Rate(), p.MinRate)
	}
	if rp.Rate() != p.MinRate {
		t.Fatalf("rate %v, want pinned at floor %v", rp.Rate(), p.MinRate)
	}
}

func TestRPFastRecoveryViaTimer(t *testing.T) {
	p := DefaultParams()
	rp, clock := newRPUnderTest(p)
	rp.OnCNP()
	rc, rt := float64(rp.Rate()), float64(rp.TargetRate())
	// Each of the first F-1 timer events (stages 1..4 < F=5) halves the
	// gap to the target without moving the target.
	for stage := 1; stage < p.F; stage++ {
		clock.Advance(p.RateTimer)
		rc = (rt + rc) / 2
		if !rateClose(rp.Rate(), simtime.Rate(rc)) {
			t.Fatalf("FR stage %d: rate %v, want %v", stage, rp.Rate(), simtime.Rate(rc))
		}
		if !rateClose(rp.TargetRate(), simtime.Rate(rt)) {
			t.Fatalf("FR stage %d: target moved to %v", stage, rp.TargetRate())
		}
	}
	if rp.Stats.FastRecovery != int64(p.F-1) {
		t.Fatalf("fast recovery events %d, want %d", rp.Stats.FastRecovery, p.F-1)
	}
}

func TestRPAdditiveIncreaseAfterF(t *testing.T) {
	p := DefaultParams()
	rp, clock := newRPUnderTest(p)
	rp.OnCNP()
	// Stages 1..4 are fast recovery; stage 5 (== F) enters additive
	// increase since max(T,BC)=5 is not < 5 and min=0 is not > 5.
	for stage := 1; stage <= p.F; stage++ {
		clock.Advance(p.RateTimer)
	}
	if rp.Stats.AdditiveInc != 1 {
		t.Fatalf("additive events %d, want 1 at stage F", rp.Stats.AdditiveInc)
	}
	// Target moved up by RAI.
	wantRT := p.LineRate + p.RAI
	if wantRT > p.LineRate {
		wantRT = p.LineRate
	}
	if !rateClose(rp.TargetRate(), wantRT) {
		t.Fatalf("target %v, want %v", rp.TargetRate(), wantRT)
	}
}

func TestRPByteCounterStages(t *testing.T) {
	p := DefaultParams()
	rp, _ := newRPUnderTest(p)
	rp.OnCNP()
	before := rp.Rate()
	// One full byte-counter budget triggers exactly one FR stage.
	rp.OnBytesSent(p.ByteCounter)
	if rp.Stats.FastRecovery != 1 {
		t.Fatalf("FR events %d, want 1", rp.Stats.FastRecovery)
	}
	if rp.Rate() <= before {
		t.Fatal("byte counter stage did not raise the rate")
	}
	// Partial budgets accumulate.
	rp.OnBytesSent(p.ByteCounter / 2)
	rp.OnBytesSent(p.ByteCounter / 2)
	if rp.Stats.FastRecovery != 2 {
		t.Fatalf("FR events %d, want 2 after split budget", rp.Stats.FastRecovery)
	}
	// A huge burst advances multiple stages at once.
	rp.OnBytesSent(3 * p.ByteCounter)
	if got := rp.Stats.FastRecovery + rp.Stats.AdditiveInc + rp.Stats.HyperInc; got != 5 {
		t.Fatalf("total increase events %d, want 5", got)
	}
}

func TestRPHyperIncreaseWhenBothPassF(t *testing.T) {
	p := DefaultParams()
	rp, clock := newRPUnderTest(p)
	rp.OnCNP()
	rp.OnCNP() // cut twice so recovery has headroom
	// Drive both counters past F.
	for i := 0; i < p.F+1; i++ {
		clock.Advance(p.RateTimer)
		rp.OnBytesSent(p.ByteCounter)
	}
	if rp.Stats.HyperInc == 0 {
		t.Fatal("hyper increase never engaged with both counters past F")
	}
}

func TestRPAlphaDecay(t *testing.T) {
	p := DefaultParams()
	rp, clock := newRPUnderTest(p)
	rp.OnCNP()
	alpha := rp.Alpha()
	clock.Advance(p.AlphaTimer)
	want := alpha * (1 - p.G)
	if math.Abs(rp.Alpha()-want) > 1e-12 {
		t.Fatalf("alpha after one idle interval %g, want %g", rp.Alpha(), want)
	}
	clock.Advance(10 * p.AlphaTimer)
	if rp.Alpha() >= want {
		t.Fatal("alpha did not keep decaying")
	}
	if rp.Stats.AlphaDecays < 10 {
		t.Fatalf("alpha decays %d, want >= 10", rp.Stats.AlphaDecays)
	}
}

func TestRPRecoversToLineRateAndDeactivates(t *testing.T) {
	p := DefaultParams()
	rp, clock := newRPUnderTest(p)
	rp.OnCNP()
	// With fast recovery halving the gap and additive increase afterwards,
	// the flow must eventually return to line rate and release the
	// limiter. Simulate a long quiet period.
	clock.Advance(simtime.Duration(10) * simtime.Second / 10) // 1s
	if rp.Active() {
		t.Fatalf("RP still active after 1s quiet (rate %v)", rp.Rate())
	}
	if rp.Rate() != p.LineRate {
		t.Fatalf("rate %v, want line rate after recovery", rp.Rate())
	}
	if rp.Stats.Deactivations != 1 {
		t.Fatalf("deactivations %d, want 1", rp.Stats.Deactivations)
	}
	if clock.Pending() != 0 {
		t.Fatalf("%d timers leaked after deactivation", clock.Pending())
	}
	// Alpha resets for the next congestion episode.
	if rp.Alpha() != 1 {
		t.Fatalf("alpha %g after release, want 1", rp.Alpha())
	}
}

func TestRPRateChangeHook(t *testing.T) {
	p := DefaultParams()
	rp, clock := newRPUnderTest(p)
	var changes []simtime.Rate
	rp.OnRateChange = func(r simtime.Rate) { changes = append(changes, r) }
	rp.OnCNP()
	if len(changes) != 1 || !rateClose(changes[0], p.LineRate/2) {
		t.Fatalf("hook after cut: %v", changes)
	}
	clock.Advance(p.RateTimer)
	if len(changes) != 2 || changes[1] <= changes[0] {
		t.Fatalf("hook after increase: %v", changes)
	}
}

func TestRPStop(t *testing.T) {
	p := DefaultParams()
	rp, clock := newRPUnderTest(p)
	rp.OnCNP()
	rp.Stop()
	if rp.Active() {
		t.Fatal("active after Stop")
	}
	clock.Advance(simtime.Duration(simtime.Second))
	if clock.Pending() != 0 {
		t.Fatalf("%d timers pending after Stop", clock.Pending())
	}
}

func TestRPBytesIgnoredWhenInactive(t *testing.T) {
	p := DefaultParams()
	rp, _ := newRPUnderTest(p)
	rp.OnBytesSent(100 * p.ByteCounter)
	if rp.Stats.FastRecovery+rp.Stats.AdditiveInc+rp.Stats.HyperInc != 0 {
		t.Fatal("increase events while unlimited")
	}
}
