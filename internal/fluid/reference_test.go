package fluid

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dcqcn/internal/core"
)

// referenceStep is a verbatim copy of Law.Step's body as it stood
// before the law was split into Drive and Apply. Step must keep every
// float operation of it in the same order, so Solve's trajectories and
// the hybrid substrate's digests stay put.
func referenceStep(l *Law, s *FlowState, m Mark, rcDel, dt float64) {
	pDel := m.P
	logOnemp := m.logOnemp

	// Probability that a CNP window contains a mark.
	pCut := 1 - math.Exp(l.tau*rcDel*logOnemp)
	// Event rates of the byte-counter and timer increase stages:
	// p/((1−p)^{−B}−1) ≈ 1/B and p/((1−p)^{−T·R}−1) ≈ 1/(T·R). The
	// denominators underflow to 0 when p or rcDel vanish; the guarded
	// branches take the corresponding limits.
	var evB, evT float64
	if pDel > 0 {
		if denB := math.Exp(-l.bPkts*logOnemp) - 1; denB > 0 {
			evB = rcDel * pDel / denB
		} else if l.bPkts > 0 {
			evB = rcDel / l.bPkts
		}
		if denT := math.Exp(-l.timerT*rcDel*logOnemp) - 1; denT > 0 {
			evT = rcDel * pDel / denT
		} else if l.timerT > 0 {
			evT = 1 / l.timerT
		}
	} else {
		if l.bPkts > 0 {
			evB = rcDel / l.bPkts
		}
		if l.timerT > 0 {
			evT = 1 / l.timerT
		}
	}
	// Probability of having survived F stages (AI phase reached).
	aiB := math.Exp(l.fStages * l.bPkts * logOnemp)
	aiT := math.Exp(l.fStages * l.timerT * rcDel * logOnemp)

	// The cut terms keep the exact operation order Solve always used, so
	// extracting the law did not perturb the solved trajectories.
	var dAlpha, cutRT, cutRC float64
	if l.tauPrime > 0 {
		dAlpha = l.Params.G / l.tauPrime * (pCut - s.Alpha)
	}
	if l.tau > 0 {
		cutRT = -(s.RT - s.RC) / l.tau * pCut
		cutRC = -s.RC * s.Alpha / (2 * l.tau) * pCut
	}
	dRT := cutRT + l.rAI*evB*aiB + l.rAI*evT*aiT
	dRC := cutRC + (s.RT-s.RC)/2*(evB+evT)

	s.Alpha += dAlpha * dt
	s.RT += dRT * dt
	s.RC += dRC * dt

	if s.Alpha < 0 {
		s.Alpha = 0
	} else if s.Alpha > 1 {
		s.Alpha = 1
	}
	if s.RT > l.lineRate {
		s.RT = l.lineRate
	}
	if s.RC > l.lineRate {
		s.RC = l.lineRate
	}
	if s.RC < l.minRate {
		s.RC = l.minRate
	}
	if s.RT < s.RC {
		s.RT = s.RC
	}
}

// degenerate edits the default parameters into each law the reference
// test steps: the default itself, one with each parameter the step
// guards against being zero (τ, τ′, T, B), and one with all four zero.
var degenerate = []func(*core.Params){
	func(*core.Params) {},
	func(p *core.Params) { p.CNPInterval = 0 },
	func(p *core.Params) { p.AlphaTimer = 0 },
	func(p *core.Params) { p.RateTimer = 0 },
	func(p *core.Params) { p.ByteCounter = 0 },
	func(p *core.Params) {
		p.CNPInterval, p.AlphaTimer, p.RateTimer, p.ByteCounter = 0, 0, 0, 0
	},
}

// stepCase is one random input to the step: a law, a state, a delayed
// marking probability and rate, and a step length. Probabilities are
// log-uniform over (1e-8, 1], where the cut and the AI terms take turns
// to dominate, plus the edges 0, 1e-300, 1 and 1.5. The state's rates
// are log-uniform over four decades below the line rate, so a last-bit
// change in a derivative reaches the state, and the delayed rate runs
// from zero to past the line rate: every guard and clamp is taken.
type stepCase struct {
	law          int
	s            FlowState
	p, rcDel, dt float64
}

func (stepCase) Generate(r *rand.Rand, _ int) reflect.Value {
	line := float64(core.DefaultParams().LineRate) / (1500 * 8)
	pick := func(edges ...float64) float64 { return edges[r.Intn(len(edges))] }
	c := stepCase{
		law:   r.Intn(len(degenerate)),
		p:     math.Pow(10, -8*r.Float64()),
		rcDel: r.Float64() * 1.2 * line,
		dt:    pick(1e-6, 1e-5, 1e-3) * r.Float64(),
	}
	switch r.Intn(4) {
	case 0:
		c.p = pick(0, 1, 1.5, 1e-300)
	case 1:
		c.rcDel = 0
	}
	c.s.RC = line * math.Pow(10, -4*r.Float64())
	c.s.RT = c.s.RC * math.Pow(line/c.s.RC, r.Float64())
	c.s.Alpha = r.Float64()
	return reflect.ValueOf(c)
}

// sameBits reports whether two states are equal bit for bit.
func sameBits(a, b FlowState) bool {
	return math.Float64bits(a.RC) == math.Float64bits(b.RC) &&
		math.Float64bits(a.RT) == math.Float64bits(b.RT) &&
		math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha)
}

// TestLawStepMatchesReference holds Step to the reference bit for bit:
// on random states and inputs, and on the edges every guard exists for
// (p = 0, p ≥ 1, rcDel = 0, and a zero τ, τ′, T or B).
func TestLawStepMatchesReference(t *testing.T) {
	laws := make([]Law, len(degenerate))
	for i, edit := range degenerate {
		p := core.DefaultParams()
		edit(&p)
		laws[i] = NewLaw(p, 1500)
	}
	check := func(c stepCase) bool {
		l := &laws[c.law]
		m := l.Delay(c.p)
		got, want := c.s, c.s
		l.Step(&got, m, c.rcDel, c.dt)
		referenceStep(l, &want, m, c.rcDel, c.dt)
		if !sameBits(got, want) {
			t.Logf("law %d, state %+v, p=%g, rcDel=%g, dt=%g: Step %+v, reference %+v",
				c.law, c.s, c.p, c.rcDel, c.dt, got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}

	line := laws[0].LineRatePkts()
	states := []FlowState{
		{RC: line, RT: line, Alpha: 1},
		{RC: 0, RT: 0, Alpha: 1},
		{RC: line / 100, RT: line / 2, Alpha: 0.3},
	}
	for li := range laws {
		for _, s := range states {
			for _, p := range []float64{0, 1e-300, 0.01, 1, 1.5} {
				for _, rcDel := range []float64{0, line / 100, line} {
					if !check(stepCase{law: li, s: s, p: p, rcDel: rcDel, dt: 1e-5}) {
						t.Fatal("Step departs from the reference on an edge case")
					}
				}
			}
		}
	}
}
