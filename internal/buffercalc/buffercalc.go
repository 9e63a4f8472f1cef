// Package buffercalc implements the switch buffer threshold engineering of
// §4 of the DCQCN paper: how to set PFC headroom, the PFC PAUSE threshold
// and the ECN marking threshold on a shared-buffer switch so that
//
//	(i)  ECN marking always fires before PFC (DCQCN gets a chance to act),
//	(ii) PFC still fires before the buffer overflows (losslessness).
//
// The calculations follow the paper's Trident II model: a buffer of B
// bytes shared by n ports and 8 PFC priorities, per-ingress-queue
// headroom t_flight, a dynamic PAUSE threshold
//
//	t_PFC = β(B − 8·n·t_flight − s)/8
//
// where s is the occupied shared buffer, and an egress ECN threshold
// t_ECN that must satisfy t_ECN < β(B − 8·n·t_flight)/(8·n·(β+1)).
package buffercalc

import (
	"fmt"

	"dcqcn/internal/simtime"
)

// SwitchSpec describes a shared-buffer switch and its links for threshold
// calculation. DefaultArista7050QX32 returns the paper's testbed switch.
type SwitchSpec struct {
	// BufferBytes is the total shared packet buffer B.
	BufferBytes int64
	// Ports is the number of front-panel ports n.
	Ports int
	// Priorities is the number of PFC priority classes (8 on the paper's
	// switches).
	Priorities int
	// LineRate is the port speed.
	LineRate simtime.Rate
	// MTUBytes is the maximum frame size.
	MTUBytes int64
	// CableDelay is the one-way propagation delay to the upstream device.
	CableDelay simtime.Duration
	// ResponseDelay models everything between "queue crossed the
	// threshold" and "upstream transmitter actually stops": PAUSE frame
	// serialization and parsing, PFC quanta granularity, and pipeline
	// latency. The default is calibrated so the paper's configuration
	// yields its published 22.4 KB headroom.
	ResponseDelay simtime.Duration
}

// DefaultArista7050QX32 returns the spec of the paper's Arista 7050QX32
// (Broadcom Trident II): 32 × 40 Gb/s ports sharing 12 MB of buffer with
// 8 PFC priorities, 1500 B MTU. Note the paper uses decimal units
// (12 MB = 12·10⁶ B), which this package follows.
func DefaultArista7050QX32() SwitchSpec {
	return SwitchSpec{
		BufferBytes:   12 * 1000 * 1000,
		Ports:         32,
		Priorities:    8,
		LineRate:      40 * simtime.Gbps,
		MTUBytes:      1500,
		CableDelay:    500 * simtime.Nanosecond, // ~100 m of fiber
		ResponseDelay: 2880 * simtime.Nanosecond,
	}
}

// Headroom returns t_flight: the per-(ingress port, priority) buffer that
// must be reserved to absorb traffic that arrives after PAUSE is sent.
// The worst case counts, per the guidelines the paper cites:
//
//   - bytes in flight on the cable in both directions (the PAUSE travels
//     one way while data keeps arriving the other way),
//   - one maximum-size frame whose transmission the upstream device has
//     begun and cannot abandon,
//   - one maximum-size frame this switch was mid-receiving,
//   - bytes sent during the upstream device's PFC response time.
func (s SwitchSpec) Headroom() int64 {
	inFlight := s.LineRate.BytesIn(2 * s.CableDelay)
	response := s.LineRate.BytesIn(s.ResponseDelay)
	return inFlight + 2*s.MTUBytes + response
}

// usable returns the shared buffer left after reserving headroom for all
// ingress queues: B − priorities·n·t_flight.
func (s SwitchSpec) usable() int64 {
	return s.BufferBytes - int64(s.Priorities)*int64(s.Ports)*s.Headroom()
}

// StaticPFCThreshold returns the upper bound on a fixed per-ingress-queue
// PAUSE threshold: (B − 8·n·t_flight)/(8·n). If every ingress queue grew
// to this size simultaneously, the buffer would be exactly full net of
// headroom.
func (s SwitchSpec) StaticPFCThreshold() int64 {
	return s.usable() / int64(s.Priorities*s.Ports)
}

// DynamicPFCThreshold returns the Trident II dynamic PAUSE threshold for
// the given sharing factor β and current shared-buffer occupancy s:
// β(B − 8·n·t_flight − occupied)/8. A larger β tolerates longer ingress
// queues while the buffer is empty.
func (s SwitchSpec) DynamicPFCThreshold(beta float64, occupied int64) int64 {
	return dynamicPFCThreshold(s.usable(), s.Priorities, beta, occupied)
}

// DynamicPFC is DynamicPFCThreshold with the spec's usable buffer
// computed once, for a switch that evaluates the threshold on every
// admission and departure. Its thresholds are exactly
// DynamicPFCThreshold's.
type DynamicPFC struct {
	usable     int64
	priorities int
}

// DynamicPFC precomputes the usable buffer of the spec.
func (s SwitchSpec) DynamicPFC() DynamicPFC {
	return DynamicPFC{usable: s.usable(), priorities: s.Priorities}
}

// Threshold returns DynamicPFCThreshold(beta, occupied) of the spec d
// was built from.
func (d DynamicPFC) Threshold(beta float64, occupied int64) int64 {
	return dynamicPFCThreshold(d.usable, d.priorities, beta, occupied)
}

// dynamicPFCThreshold is the threshold formula: β·max(usable −
// occupied, 0)/priorities.
func dynamicPFCThreshold(usable int64, priorities int, beta float64, occupied int64) int64 {
	free := usable - occupied
	if free < 0 {
		free = 0
	}
	return int64(beta * float64(free) / float64(priorities))
}

// NaiveECNBound returns the t_ECN bound without dynamic thresholds:
// t_PFC/n with the static t_PFC. The paper shows this is below one MTU
// (infeasible) on its switches — the motivation for dynamic thresholds.
func (s SwitchSpec) NaiveECNBound() int64 {
	return s.StaticPFCThreshold() / int64(s.Ports)
}

// MaxECNThreshold returns the largest egress ECN threshold guaranteeing
// ECN fires before PFC under the dynamic threshold with sharing factor
// β: t_ECN < β(B − 8·n·t_flight)/(8·n·(β+1)).
//
// Derivation (§4): the worst case is all egress backlog originating from
// one ingress queue. Just before ECN triggers anywhere, the occupancy is
// at most s = n·t_ECN, so the ingress queue (= s) must still be below
// t_PFC(s) = β(usable − s)/8.
func (s SwitchSpec) MaxECNThreshold(beta float64) int64 {
	denom := float64(s.Priorities*s.Ports) * (beta + 1)
	return int64(beta * float64(s.usable()) / denom)
}

// Plan is a complete, checked threshold assignment for one switch.
type Plan struct {
	// Headroom is t_flight, per ingress port and priority.
	Headroom int64
	// StaticPFC is the upper bound for a fixed PAUSE threshold.
	StaticPFC int64
	// Beta is the dynamic-threshold sharing factor (paper: 8).
	Beta float64
	// ECNThreshold is the chosen K_min-compatible egress threshold bound.
	ECNThreshold int64
	// NaiveECNBound is what the bound would be without dynamic
	// thresholds; below one MTU on the paper's switches.
	NaiveECNBound int64
	// Feasible reports whether ECNThreshold admits at least one MTU.
	Feasible bool
}

// Plan computes the full §4 assignment for sharing factor β.
func (s SwitchSpec) Plan(beta float64) Plan {
	ecn := s.MaxECNThreshold(beta)
	return Plan{
		Headroom:      s.Headroom(),
		StaticPFC:     s.StaticPFCThreshold(),
		Beta:          beta,
		ECNThreshold:  ecn,
		NaiveECNBound: s.NaiveECNBound(),
		Feasible:      ecn >= s.MTUBytes,
	}
}

// Validate reports the first spec error, or nil.
func (s SwitchSpec) Validate() error {
	switch {
	case s.BufferBytes <= 0:
		return fmt.Errorf("buffercalc: buffer must be positive, got %d", s.BufferBytes)
	case s.Ports <= 0:
		return fmt.Errorf("buffercalc: ports must be positive, got %d", s.Ports)
	case s.Priorities <= 0 || s.Priorities > 8:
		return fmt.Errorf("buffercalc: priorities must be 1..8, got %d", s.Priorities)
	case s.LineRate <= 0:
		return fmt.Errorf("buffercalc: line rate must be positive, got %v", s.LineRate)
	case s.MTUBytes <= 0:
		return fmt.Errorf("buffercalc: MTU must be positive, got %d", s.MTUBytes)
	case s.CableDelay < 0 || s.ResponseDelay < 0:
		return fmt.Errorf("buffercalc: delays must be non-negative")
	case s.usable() <= 0:
		return fmt.Errorf("buffercalc: headroom %d × %d queues exceeds buffer %d",
			s.Headroom(), s.Priorities*s.Ports, s.BufferBytes)
	}
	return nil
}

// String renders the plan as the paper's §4 summary.
func (p Plan) String() string {
	feasible := "feasible"
	if !p.Feasible {
		feasible = "INFEASIBLE (< 1 MTU)"
	}
	return fmt.Sprintf(
		"t_flight=%.1fKB t_PFC<=%.2fKB naive t_ECN<%.2fKB dynamic(beta=%g) t_ECN<%.2fKB [%s]",
		float64(p.Headroom)/1000, float64(p.StaticPFC)/1000,
		float64(p.NaiveECNBound)/1000, p.Beta, float64(p.ECNThreshold)/1000, feasible)
}
