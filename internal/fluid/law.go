package fluid

import (
	"math"

	"dcqcn/internal/core"
	"dcqcn/internal/simtime"
)

// Law is the per-flow DCQCN rate-control law of Eqs. (7)-(9) in a form
// that can be stepped incrementally: all parameter-derived constants are
// precomputed once, and Step advances one flow's state by one Euler
// step, in two halves: Drive computes the terms the delayed inputs fix,
// Apply updates the state with them. Solve drives Step for the offline
// trajectories; the hybrid co-simulation (internal/hybrid) drives the
// halves live, one step per engine tick, against marking pressure
// measured on the packet fabric.
//
// All rates inside a Law are in packets per second (converted with the
// MTU it was built with); queue lengths are in bytes.
type Law struct {
	// Params retains the marking law (Fig. 5) and gain g.
	Params core.Params

	tau      float64 // τ: CNP spacing / cut window, seconds
	tauPrime float64 // τ': alpha update interval, seconds
	timerT   float64 // T: rate-increase timer, seconds
	bPkts    float64 // B: byte counter, packets
	fStages  float64 // F: fast-recovery stage count
	rAI      float64 // R_AI in packets/s
	lineRate float64 // packets/s
	minRate  float64 // packets/s
	mtuBytes float64
	mtuBits  float64
}

// FlowState is one flow's (or one symmetric flow class's) rate-control
// state, in packets per second.
type FlowState struct {
	RC    float64 // current rate
	RT    float64 // target rate
	Alpha float64 // rate-reduction factor
}

// NewLaw precomputes the law's constants from DCQCN parameters and the
// MTU used to convert between bit and packet rates.
func NewLaw(p core.Params, mtuBytes int) Law {
	mtuBits := float64(mtuBytes) * 8
	return Law{
		Params:   p,
		tau:      p.CNPInterval.Seconds(),
		tauPrime: p.AlphaTimer.Seconds(),
		timerT:   p.RateTimer.Seconds(),
		bPkts:    float64(p.ByteCounter) / float64(mtuBytes),
		fStages:  float64(p.F),
		rAI:      float64(p.RAI) / mtuBits,
		lineRate: float64(p.LineRate) / mtuBits,
		minRate:  float64(p.MinRate) / mtuBits,
		mtuBytes: float64(mtuBytes),
		mtuBits:  float64(mtuBytes) * 8,
	}
}

// PktRate converts a bit rate to the law's packet-rate unit.
func (l *Law) PktRate(r simtime.Rate) float64 { return float64(r) / l.mtuBits }

// BitRate converts a packet rate back to bits/second.
func (l *Law) BitRate(pktsPerSec float64) float64 { return pktsPerSec * l.mtuBits }

// LineRatePkts returns the configured line rate in packets/s.
func (l *Law) LineRatePkts() float64 { return l.lineRate }

// MinRatePkts returns the configured minimum rate in packets/s.
func (l *Law) MinRatePkts() float64 { return l.minRate }

// InitialState returns the hardware reset state at the given starting
// rate: RT = RC, α = 1.
func (l *Law) InitialState(rate simtime.Rate) FlowState {
	rc := l.PktRate(rate)
	return FlowState{RC: rc, RT: rc, Alpha: 1}
}

// Mark is one delayed marking observation p(t−τ*), preprocessed so the
// log it needs is computed once per integration step and shared by every
// flow stepped against it.
type Mark struct {
	// P is the marking probability, clamped into [0, 1).
	P        float64
	logOnemp float64 // log(1 − P)
}

// Delay preprocesses a marking probability into a Mark. Values outside
// [0, 1) are clamped: the fluid queue can push the RED law to exactly 1
// in overload, where log(1−p) would be −Inf.
func (l *Law) Delay(p float64) Mark {
	if p >= 1 {
		p = 1 - 1e-12
	}
	if p < 0 {
		p = 0
	}
	return Mark{P: p, logOnemp: math.Log(1 - p)}
}

// Drive is the transcendental half of one step of Eqs. (7)-(9): every
// term that depends only on the delayed inputs p(t−τ*) and RC(t−τ*),
// not on the flow's current state. Law.Drive is a pure function of
// those inputs, so a caller whose delayed inputs repeat bit for bit may
// keep the Drive it computed for them and Apply it again.
//
// Drive and Apply pass it by pointer: at five float64s it is too large
// for the compiler to keep in registers, and copying it by value moves
// it through memory in 16-byte halves that the CPU cannot forward from
// the 8-byte stores that wrote it.
type Drive struct {
	pCut     float64 // probability that a CNP window contains a mark
	evB, evT float64 // byte-counter and timer increase event rates
	aiB, aiT float64 // probability of having survived F stages
}

// Step advances one flow's state by one Euler step of length dt seconds:
// the delayed marking probability m and delayed rate rcDel (packets/s)
// are the primed quantities of Eqs. (7)-(9). It is Drive, then Apply.
//
//hot:path
func (l *Law) Step(s *FlowState, m Mark, rcDel, dt float64) {
	var d Drive
	l.Drive(&d, m, rcDel)
	l.Apply(s, &d, dt)
}

// Drive sets d to the terms of Eqs. (7)-(9) that the delayed marking
// probability m and delayed rate rcDel (packets/s) determine: five
// exponentials. Degenerate parameters and states that a live caller can
// reach — a flow class at zero rate, a zero cut window or byte counter —
// are guarded to the analytic limits instead of dividing by zero.
//
//hot:path
func (l *Law) Drive(d *Drive, m Mark, rcDel float64) {
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
	d.pCut, d.evB, d.evT, d.aiB, d.aiT = pCut, evB, evT, aiB, aiT
}

// Apply advances one flow's state by one Euler step of length dt
// seconds under the drive d, then clamps it: α into [0, 1], RC into
// [MinRate, line rate], RT into [RC, line rate]. A zero alpha timer or
// cut window drops the terms that would divide by it.
//
//hot:path
func (l *Law) Apply(s *FlowState, d *Drive, dt float64) {
	// The cut terms keep the exact operation order Solve always used, so
	// extracting the law did not perturb the solved trajectories.
	var dAlpha, cutRT, cutRC float64
	if l.tauPrime > 0 {
		dAlpha = l.Params.G / l.tauPrime * (d.pCut - s.Alpha)
	}
	if l.tau > 0 {
		cutRT = -(s.RT - s.RC) / l.tau * d.pCut
		cutRC = -s.RC * s.Alpha / (2 * l.tau) * d.pCut
	}
	dRT := cutRT + l.rAI*d.evB*d.aiB + l.rAI*d.evT*d.aiT
	dRC := cutRC + (s.RT-s.RC)/2*(d.evB+d.evT)

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

// StepQueue advances a bottleneck queue (bytes) by one Euler step of
// Eq. (6)/(11): arrivals and capacity are in packets/s. Occupancy is
// clamped at zero — an over-provisioned port cannot owe bytes — and at
// maxBytes when positive (a fluid queue standing in for a shared-buffer
// partition saturates instead of growing without bound in overload).
//
//hot:path
func (l *Law) StepQueue(q, arrivalsPkts, capacityPkts, dt, maxBytes float64) float64 {
	q += (arrivalsPkts - capacityPkts) * l.mtuBytes * dt
	if q < 0 {
		q = 0
	}
	if maxBytes > 0 && q > maxBytes {
		q = maxBytes
	}
	return q
}
