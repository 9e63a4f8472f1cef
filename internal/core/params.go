// Package core implements the DCQCN congestion-control algorithm from
// "Congestion Control for Large-Scale RDMA Deployments" (SIGCOMM 2015):
// the congestion-point (CP) marking law of Fig. 5, the notification-point
// (NP) CNP-generation state machine of Fig. 6, and the reaction-point (RP)
// rate machine of Fig. 7 with the update rules of Eqs. (1)-(4).
//
// The package is independent of the packet simulator: the state machines
// are driven by explicit events (marked-packet arrival, CNP reception,
// bytes transmitted) and a small Clock interface for their internal
// timers, so they can run inside the simulator, inside the fluid model's
// validation tests, or in a real control plane.
package core

import (
	"fmt"

	"dcqcn/internal/simtime"
)

// Params holds every tunable of the DCQCN protocol. DefaultParams returns
// the values the paper derives from the fluid model and deploys in
// production (its Fig. 14 table); StrawmanParams returns the
// QCN/DCTCP-recommended values the paper starts from and shows to be
// non-convergent (§5.2).
type Params struct {
	// --- CP (switch) marking: Fig. 5 ---

	// KMin is the egress queue length at which RED/ECN marking begins.
	KMin int64 `json:"KMin"`
	// KMax is the egress queue length at which the marking probability
	// reaches PMax; beyond it every packet is marked. Setting KMax == KMin
	// yields DCTCP-like cut-off marking.
	KMax int64 `json:"KMax"`
	// PMax is the marking probability at KMax (0..1].
	PMax float64 `json:"PMax"`

	// --- NP (receiver): Fig. 6 ---

	// CNPInterval (N in the paper) is the minimum spacing between CNPs
	// generated for one flow. The paper fixes it at 50 µs, a ConnectX-3
	// firmware constraint.
	CNPInterval simtime.Duration `json:"CNPInterval"`

	// --- RP (sender): Fig. 7, Eqs. (1)-(4) ---

	// G is the EWMA gain g of the alpha update (Eq. 1/2). Paper: 1/256.
	G float64 `json:"G"`
	// AlphaTimer (K in the paper) is the interval after which, absent
	// CNPs, alpha decays by Eq. (2). Must exceed CNPInterval. Paper: 55 µs.
	AlphaTimer simtime.Duration `json:"AlphaTimer"`
	// RateTimer (T) is the period of the time-based rate-increase events.
	// Paper: 55 µs after tuning (1.5 ms in the QCN strawman).
	RateTimer simtime.Duration `json:"RateTimer"`
	// ByteCounter (B) is the byte budget per byte-counter rate-increase
	// event. Paper: 10 MB after tuning (150 KB in the QCN strawman).
	ByteCounter int64 `json:"ByteCounter"`
	// F is the number of fast-recovery stages before additive increase.
	// Fixed at 5 in the paper.
	F int `json:"F"`
	// RAI is the additive-increase step. Fixed at 40 Mb/s in the paper.
	RAI simtime.Rate `json:"RAI"`
	// RHAI is the hyper-increase step applied per stage beyond F when
	// both timer and byte counter have passed F (QCN's HAI phase).
	RHAI simtime.Rate `json:"RHAI"`
	// MinRate is the floor of the per-flow rate limiter, modelling the
	// minimum rate the NIC hardware can enforce.
	MinRate simtime.Rate `json:"MinRate"`
	// LineRate is the NIC port speed; flows start at LineRate (no slow
	// start) and RC/RT never exceed it.
	LineRate simtime.Rate `json:"LineRate"`
	// ClampTargetRate mirrors the hardware knob that resets RT to RC on
	// each cut (rather than leaving RT at the pre-cut rate). The paper's
	// Eq. (1) sets RT = RC before cutting, which is what false models.
	ClampTargetRate bool `json:"ClampTargetRate"`
}

// DefaultParams returns the production parameter set of the paper's
// Fig. 14 plus the fixed constants of §5 (F=5, R_AI=40 Mb/s) for a
// 40 Gb/s fabric.
func DefaultParams() Params {
	return Params{
		KMin:        5 * 1000,   // 5 KB
		KMax:        200 * 1000, // 200 KB
		PMax:        0.01,       // 1%
		CNPInterval: 50 * simtime.Microsecond,
		G:           1.0 / 256,
		AlphaTimer:  55 * simtime.Microsecond,
		RateTimer:   55 * simtime.Microsecond,
		ByteCounter: 10 * 1000 * 1000, // 10 MB
		F:           5,
		RAI:         40 * simtime.Mbps,
		RHAI:        400 * simtime.Mbps,
		MinRate:     10 * simtime.Mbps,
		LineRate:    40 * simtime.Gbps,
	}
}

// StrawmanParams returns the initial parameter set of §5.2: the values
// recommended by the QCN and DCTCP specifications (byte counter 150 KB,
// timer 1.5 ms, cut-off marking at 40 KB, g = 1/16), which the fluid
// model shows cannot converge to fairness.
func StrawmanParams() Params {
	p := DefaultParams()
	p.ByteCounter = 150 * 1000
	p.RateTimer = 1500 * simtime.Microsecond
	p.KMin = 40 * 1000
	p.KMax = 40 * 1000
	p.PMax = 1.0
	p.G = 1.0 / 16
	return p
}

// WithCutoffMarking returns a copy of p using DCTCP-like cut-off marking
// at threshold k (K_min = K_max = k, P_max = 1), per §3.1.
func (p Params) WithCutoffMarking(k int64) Params {
	p.KMin, p.KMax, p.PMax = k, k, 1.0
	return p
}

// Validate reports the first configuration error, or nil. The checks
// encode the constraints stated in the paper: K must exceed the CNP
// generation interval (§3.1), thresholds must be ordered, gains must be
// probabilities.
func (p Params) Validate() error {
	switch {
	case p.KMin < 0 || p.KMax < p.KMin:
		return fmt.Errorf("core: need 0 <= KMin <= KMax, got %d, %d", p.KMin, p.KMax)
	case p.PMax <= 0 || p.PMax > 1:
		return fmt.Errorf("core: PMax must be in (0,1], got %g", p.PMax)
	case p.G <= 0 || p.G >= 1:
		return fmt.Errorf("core: g must be in (0,1), got %g", p.G)
	case p.CNPInterval <= 0:
		return fmt.Errorf("core: CNPInterval must be positive, got %v", p.CNPInterval)
	case p.AlphaTimer < p.CNPInterval:
		return fmt.Errorf("core: alpha timer (%v) must be >= CNP interval (%v) to avoid spurious decay", p.AlphaTimer, p.CNPInterval)
	case p.RateTimer < p.CNPInterval:
		return fmt.Errorf("core: rate timer (%v) must be >= CNP interval (%v) to avoid unwarranted increases between CNPs", p.RateTimer, p.CNPInterval)
	case p.ByteCounter <= 0:
		return fmt.Errorf("core: byte counter must be positive, got %d", p.ByteCounter)
	case p.F <= 0:
		return fmt.Errorf("core: F must be positive, got %d", p.F)
	case p.RAI <= 0 || p.RHAI <= 0:
		return fmt.Errorf("core: RAI/RHAI must be positive, got %v, %v", p.RAI, p.RHAI)
	case p.MinRate <= 0 || p.LineRate <= p.MinRate:
		return fmt.Errorf("core: need 0 < MinRate < LineRate, got %v, %v", p.MinRate, p.LineRate)
	}
	return nil
}

// Clock abstracts the timer facility the NP and RP state machines need.
// nic.Clock adapts the simulation engine to it, and also implements
// Scheduler; simtest.Clock is the manual clock unit tests use.
type Clock interface {
	// Now returns the current time.
	Now() simtime.Time
	// After schedules fn once, d from now, returning a cancel function.
	// Cancel must be safe to call after the timer fired.
	After(d simtime.Duration, fn func()) (cancel func())
}
