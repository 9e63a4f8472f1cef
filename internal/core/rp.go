package core

import (
	"math"

	"dcqcn/internal/simtime"
)

// RPStats counts reaction-point activity for experiment reports.
type RPStats struct {
	CNPs          int64 // rate cuts executed (one per CNP received)
	FastRecovery  int64 // fast-recovery increase events
	AdditiveInc   int64 // additive-increase events
	HyperInc      int64 // hyper-increase events
	AlphaDecays   int64 // Eq. (2) idle alpha decays
	Activations   int64 // transitions from unlimited to rate-limited
	Deactivations int64 // rate limiter released (back at line rate)
}

// RP is the reaction-point state machine of Fig. 7, instantiated once per
// rate-limited flow at the sender NIC.
//
// A flow starts unlimited at line rate (DCQCN has no slow start). The
// first CNP activates the rate limiter; from then on:
//
//   - each CNP cuts the rate per Eq. (1) and restarts the increase
//     machinery;
//   - a byte counter (every ByteCounter bytes sent) and a timer (every
//     RateTimer) each advance an increase stage per Eqs. (3)-(4): fast
//     recovery toward the target for the first F stages, then additive
//     increase, then hyper increase once both counters pass F;
//   - absent CNPs, alpha decays every AlphaTimer per Eq. (2).
//
// When the rate climbs back to line rate the limiter is released and all
// state (including alpha, which the hardware only tracks for limited
// flows) is reset.
type RP struct {
	params Params

	// OnRateChange, if set, is invoked after every change of the current
	// rate so the NIC can re-arm its pacing engine.
	OnRateChange func(simtime.Rate)

	active     bool
	rc, rt     simtime.Rate // current and target rates
	alpha      float64
	tStage     int   // timer-driven increase stages since last cut
	bcStage    int   // byte-counter-driven stages since last cut
	byteBudget int64 // bytes accumulated toward the next byte-counter event

	// rateTimer drives the time-based increase stages and alphaTimer the
	// Eq. (2) decay; both continuations are bound once, in NewRP, so the
	// re-arm on every CNP and every expiry allocates nothing.
	rateTimer  Timer
	alphaTimer Timer

	Stats RPStats
}

// NewRP creates a reaction point. params must be valid.
func NewRP(params Params, clock Clock) *RP {
	r := &RP{
		params: params,
		rc:     params.LineRate,
		rt:     params.LineRate,
		alpha:  1,
	}
	r.rateTimer = NewTimer(clock, r.onRateTimer)
	r.alphaTimer = NewTimer(clock, r.onAlphaTimer)
	return r
}

// Rate returns the rate the NIC may currently send this flow at.
func (r *RP) Rate() simtime.Rate { return r.rc }

// TargetRate returns RT, the recovery target (line rate when unlimited).
func (r *RP) TargetRate() simtime.Rate { return r.rt }

// Alpha returns the current rate-reduction factor estimate.
func (r *RP) Alpha() float64 { return r.alpha }

// Active reports whether the flow is currently rate limited.
func (r *RP) Active() bool { return r.active }

// Params returns the parameter set the RP runs with.
func (r *RP) Params() Params { return r.params }

// OnCNP processes one received Congestion Notification Packet: Eq. (1) —
// a cut by alpha/2 plus the alpha increase toward 1.
func (r *RP) OnCNP() {
	r.Stats.CNPs++
	r.CutRate(r.alpha / 2)
	r.alpha = (1-r.params.G)*r.alpha + r.params.G
	r.alphaTimer.Reset(r.params.AlphaTimer)
}

// CutRate is the congestion-reaction primitive shared with the QCN
// baseline: remember the pre-cut rate as the recovery target, cut the
// current rate by frac, and restart the increase machinery (Fig. 7's
// CutRate box). DCQCN's OnCNP is CutRate(alpha/2) plus the alpha update.
func (r *RP) CutRate(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if !r.active {
		r.activate()
	}
	r.rt = r.rc
	r.setRC(r.rc * simtime.Rate(1-frac))
	r.tStage, r.bcStage, r.byteBudget = 0, 0, 0
	r.rateTimer.Reset(r.params.RateTimer)
}

// OnBytesSent informs the RP that the NIC transmitted n bytes of this
// flow. Every ByteCounter bytes advance one byte-counter increase stage.
func (r *RP) OnBytesSent(n int64) {
	if !r.active {
		return
	}
	r.byteBudget += n
	for r.byteBudget >= r.params.ByteCounter && r.active {
		r.byteBudget -= r.params.ByteCounter
		r.bcStage++
		r.increase()
	}
}

// Stop cancels all timers; call when the flow is torn down.
func (r *RP) Stop() { r.deactivate(false) }

func (r *RP) activate() {
	r.active = true
	r.Stats.Activations++
	r.tStage, r.bcStage, r.byteBudget = 0, 0, 0
	r.alpha = 1
}

func (r *RP) deactivate(count bool) {
	if !r.active {
		return
	}
	r.active = false
	if count {
		r.Stats.Deactivations++
	}
	r.rateTimer.Stop()
	r.alphaTimer.Stop()
	r.rc, r.rt, r.alpha = r.params.LineRate, r.params.LineRate, 1
}

func (r *RP) onRateTimer() {
	if !r.active {
		return
	}
	r.tStage++
	r.increase()
	if r.active {
		r.rateTimer.Reset(r.params.RateTimer)
	}
}

func (r *RP) onAlphaTimer() {
	if !r.active {
		return
	}
	// Eq. (2): no CNP for a full alpha interval.
	r.alpha *= 1 - r.params.G
	r.Stats.AlphaDecays++
	r.alphaTimer.Reset(r.params.AlphaTimer)
}

// increase executes one rate-increase event per Fig. 7 / Eqs. (3)-(4).
func (r *RP) increase() {
	t, bc, f := r.tStage, r.bcStage, r.params.F
	switch {
	case max(t, bc) < f:
		// Fast recovery: halve the gap to the target; RT unchanged.
		r.Stats.FastRecovery++
	case min(t, bc) > f:
		// Hyper increase: QCN raises RT by i*R_HAI in the i-th HAI stage.
		r.Stats.HyperInc++
		stage := min(t, bc) - f
		r.rt += simtime.Rate(stage) * r.params.RHAI
	default:
		// Additive increase.
		r.Stats.AdditiveInc++
		r.rt += r.params.RAI
	}
	if r.rt > r.params.LineRate {
		r.rt = r.params.LineRate
	}
	r.setRC((r.rt + r.rc) / 2)
	if r.rc >= r.params.LineRate {
		// Fully recovered: release the rate limiter.
		r.deactivate(true)
		r.notifyRate()
	}
}

// setRC clamps and stores the current rate and fires the change hook.
func (r *RP) setRC(rate simtime.Rate) {
	if rate < r.params.MinRate {
		rate = r.params.MinRate
	}
	if rate > r.params.LineRate {
		rate = r.params.LineRate
	}
	// Bit-identical rate means nothing changed: skip the notification.
	// Spelled as a bit comparison (not float ==) because the intent is
	// exactly "same stored representation", not numeric closeness.
	if math.Float64bits(float64(rate)) == math.Float64bits(float64(r.rc)) {
		return
	}
	r.rc = rate
	r.notifyRate()
}

func (r *RP) notifyRate() {
	if r.OnRateChange != nil {
		r.OnRateChange(r.rc)
	}
}
