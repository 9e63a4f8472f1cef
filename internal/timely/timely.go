// Package timely implements the TIMELY congestion control algorithm
// (Mittal et al., SIGCOMM 2015) as an additional baseline. The DCQCN
// paper contrasts its design with TIMELY in §3.3: DCQCN's send rate does
// not depend on accurate RTT estimation, TIMELY's does — it is the
// delay-based alternative developed concurrently at Google.
//
// TIMELY is rate-based like DCQCN, so it plugs into the same NIC pacing
// machinery (rocev2.RateController + cc.RTTReactor). Per RTT sample:
//
//   - compute the RTT gradient, smoothed by EWMA and normalized by the
//     minimum RTT;
//   - if RTT < Tlow: additive increase (the queue is empty enough that
//     gradients are noise);
//   - if RTT > Thigh: multiplicative decrease proportional to how far
//     RTT exceeds Thigh (bounds the queue);
//   - otherwise: gradient tracking — negative gradients earn additive
//     increases (with hyper-active increase after N consecutive ones),
//     positive gradients earn proportional decreases.
package timely

import (
	"fmt"
	"math"

	"dcqcn/internal/core"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

// Params holds the TIMELY knobs, defaulted per the TIMELY paper scaled
// to this repository's 40 Gb/s, ~4 µs-RTT fabric.
type Params struct {
	// EWMAAlpha smooths the RTT difference (paper: ~0.875 weight on
	// history; this is the weight of the new sample).
	EWMAAlpha float64 `json:"EWMAAlpha"`
	// TLow and THigh bracket the gradient-tracking band.
	TLow  simtime.Duration `json:"TLow"`
	THigh simtime.Duration `json:"THigh"`
	// MinRTT normalizes the gradient (the fabric's unloaded RTT).
	MinRTT simtime.Duration `json:"MinRTT"`
	// AddStep is the additive increase per decision (paper: 10 Mb/s).
	AddStep simtime.Rate `json:"AddStep"`
	// Beta is the multiplicative decrease factor (paper: 0.8).
	Beta float64 `json:"Beta"`
	// HAIThresh is the consecutive-negative-gradient count that enables
	// hyper-active increase (paper: 5).
	HAIThresh int `json:"HAIThresh"`
	// MinRate and LineRate bound the rate.
	MinRate  simtime.Rate `json:"MinRate"`
	LineRate simtime.Rate `json:"LineRate"`
}

// DefaultParams returns TIMELY parameters for the 40 Gb/s testbed.
func DefaultParams() Params {
	return Params{
		EWMAAlpha: 0.125,
		TLow:      20 * simtime.Microsecond,
		THigh:     200 * simtime.Microsecond,
		MinRTT:    5 * simtime.Microsecond,
		AddStep:   10 * simtime.Mbps,
		Beta:      0.8,
		HAIThresh: 5,
		MinRate:   10 * simtime.Mbps,
		LineRate:  40 * simtime.Gbps,
	}
}

// Validate reports the first configuration error, or nil.
func (p Params) Validate() error {
	switch {
	case p.EWMAAlpha <= 0 || p.EWMAAlpha > 1:
		return fmt.Errorf("timely: EWMAAlpha must be in (0,1], got %g", p.EWMAAlpha)
	case p.TLow <= 0 || p.THigh <= p.TLow:
		return fmt.Errorf("timely: need 0 < TLow < THigh")
	case p.MinRTT <= 0:
		return fmt.Errorf("timely: MinRTT must be positive")
	case p.AddStep <= 0:
		return fmt.Errorf("timely: AddStep must be positive")
	case p.Beta <= 0 || p.Beta >= 1:
		return fmt.Errorf("timely: Beta must be in (0,1)")
	case p.HAIThresh <= 0:
		return fmt.Errorf("timely: HAIThresh must be positive")
	case p.MinRate <= 0 || p.LineRate <= p.MinRate:
		return fmt.Errorf("timely: need 0 < MinRate < LineRate")
	}
	return nil
}

// Stats counts controller activity.
type Stats struct {
	Samples   int64
	Increases int64
	Decreases int64
	HAI       int64
}

// Controller is one flow's TIMELY instance. It implements
// rocev2.RateController and cc.RTTReactor.
type Controller struct {
	params Params
	clock  core.Clock

	rate           simtime.Rate
	prevRTT        simtime.Duration
	rttDiff        float64 // EWMA of RTT differences, seconds
	negCount       int
	lastDecreaseAt simtime.Time
	onRate         func(simtime.Rate)

	Stats Stats
}

// SetRateListener registers a hook invoked after every rate change, so a
// NIC pacing engine can re-arm immediately instead of waiting for the
// next packet boundary (the same eager re-arm DCQCN's RP gets through
// OnRateChange). Passing nil unregisters.
func (c *Controller) SetRateListener(fn func(simtime.Rate)) { c.onRate = fn }

// New creates a TIMELY controller starting at line rate (like DCQCN,
// TIMELY has no slow start). Without a clock the one-decrease-per-RTT
// rule is disabled; use NewWithClock inside the simulator.
func New(params Params) *Controller {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Controller{params: params, rate: params.LineRate}
}

// NewWithClock creates a controller that enforces TIMELY's
// one-decrease-per-RTT rule (without it, a burst of high-RTT samples
// multiplies the decrease factor per sample and the rate collapses to
// the floor before the queue can even drain).
func NewWithClock(params Params, clock core.Clock) *Controller {
	c := New(params)
	c.clock = clock
	return c
}

// Factory returns a nic.Config-compatible controller factory.
func Factory(params Params) func(core.Clock) rocev2.RateController {
	return func(clock core.Clock) rocev2.RateController {
		return NewWithClock(params, clock)
	}
}

// Rate returns the current paced rate.
func (c *Controller) Rate() simtime.Rate { return c.rate }

// OnCNP is a no-op: TIMELY uses delay, not ECN.
func (c *Controller) OnCNP() {}

// OnBytesSent is a no-op: TIMELY reacts per completion event (RTT).
func (c *Controller) OnBytesSent(int64) {}

// Stop is a no-op (no timers).
func (c *Controller) Stop() {}

// OnRTT processes one RTT sample — the TIMELY main loop.
func (c *Controller) OnRTT(rtt simtime.Duration) {
	c.Stats.Samples++
	if c.prevRTT == 0 {
		c.prevRTT = rtt
		return
	}
	diff := (rtt - c.prevRTT).Seconds()
	c.prevRTT = rtt
	c.rttDiff = (1-c.params.EWMAAlpha)*c.rttDiff + c.params.EWMAAlpha*diff
	gradient := c.rttDiff / c.params.MinRTT.Seconds()

	switch {
	case rtt < c.params.TLow:
		c.increase(1)
	case rtt > c.params.THigh:
		// Decrease proportional to how far RTT exceeds the ceiling.
		frac := 1 - c.params.THigh.Seconds()/rtt.Seconds()
		c.decrease(c.params.Beta * frac)
	case gradient <= 0:
		c.negCount++
		n := 1
		if c.negCount >= c.params.HAIThresh {
			n = 5 // hyper-active increase
			c.Stats.HAI++
		}
		c.increase(n)
	default:
		c.negCount = 0
		d := c.params.Beta * gradient
		if d > 1 {
			d = 1
		}
		c.decrease(d)
	}
}

func (c *Controller) increase(n int) {
	c.Stats.Increases++
	c.negCount = max(c.negCount, 0)
	prev := c.rate
	c.rate += simtime.Rate(n) * c.params.AddStep
	if c.rate > c.params.LineRate {
		c.rate = c.params.LineRate
	}
	// Bit comparison, not float ==: the intent is exactly "the stored
	// representation moved", the same idiom core.RP.setRC uses.
	if math.Float64bits(float64(c.rate)) != math.Float64bits(float64(prev)) && c.onRate != nil {
		c.onRate(c.rate)
	}
}

func (c *Controller) decrease(frac float64) {
	c.negCount = 0
	if c.clock != nil {
		// At most one decrease per RTT.
		gap := c.prevRTT
		if gap < c.params.MinRTT {
			gap = c.params.MinRTT
		}
		now := c.clock.Now()
		if now.Sub(c.lastDecreaseAt) < gap {
			return
		}
		c.lastDecreaseAt = now
	}
	c.Stats.Decreases++
	prev := c.rate
	c.rate = c.rate * simtime.Rate(1-frac)
	if c.rate < c.params.MinRate {
		c.rate = c.params.MinRate
	}
	if math.Float64bits(float64(c.rate)) != math.Float64bits(float64(prev)) && c.onRate != nil {
		c.onRate(c.rate)
	}
}

var _ rocev2.RateController = (*Controller)(nil)
