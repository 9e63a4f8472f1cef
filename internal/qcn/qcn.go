// Package qcn implements the Quantized Congestion Notification baseline
// (IEEE 802.1Qau) that DCQCN builds upon and §2.3 rules out for IP-routed
// networks.
//
// The congestion point samples arriving packets and computes the QCN
// congestion measure
//
//	Fb = −(q_off + w·q_delta),  q_off = q − Q_eq,  q_delta = q − q_last
//
// sending the quantized |Fb| back to the packet's source when Fb < 0.
// The reaction point cuts by G_d·|Fb| and recovers with the same byte
// counter / timer machinery as DCQCN (which inherited it from QCN).
//
// The defining limitation is preserved: QCN identifies flows by L2
// addresses, so a congestion point can only send feedback to sources in
// its own L2 domain. The CP is therefore constructed with the set of
// locally attached nodes and silently fails — exactly like real QCN —
// when the congested flow originates beyond an IP hop (§2.3). The
// Fig. 20-adjacent ablation and the unit tests demonstrate both the
// working single-switch case and the multi-hop failure.
package qcn

import (
	"math"

	"dcqcn/internal/core"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

// CPConfig holds the congestion-point parameters (802.1Qau defaults
// scaled to a 40 Gb/s fabric).
type CPConfig struct {
	// QEq is the operating point the CP regulates the queue to.
	QEq int64 `json:"QEq"`
	// W weights the rate-of-change term q_delta.
	W float64 `json:"W"`
	// SampleEvery is the mean bytes between samples (the standard
	// samples roughly every 150 KB, adapting with severity; we keep the
	// fixed base and let severity scale the probability).
	SampleEvery int64 `json:"SampleEvery"`
	// MaxFb is the quantization ceiling (6 bits: 63 in the standard,
	// interpreted here relative to QEq).
	MaxFb float64 `json:"MaxFb"`
}

// DefaultCPConfig returns 802.1Qau-style defaults.
func DefaultCPConfig() CPConfig {
	return CPConfig{
		QEq:         66 * 1500, // ~100 KB operating point
		W:           2,
		SampleEvery: 150 * 1000,
		MaxFb:       63,
	}
}

// CP is the QCN congestion point, attached to a switch via the fabric
// Sampler hook.
type CP struct {
	cfg    CPConfig
	local  map[packet.NodeID]bool
	randFn func() float64
	qLast  int64

	// FeedbackSent counts generated feedback frames; Unreachable counts
	// congestion events whose source lay beyond the L2 domain.
	FeedbackSent int64
	Unreachable  int64
}

// NewCP creates a congestion point. local lists the nodes reachable at
// L2 (the switch's directly attached hosts); randFn supplies the
// sampling coin.
func NewCP(cfg CPConfig, local []packet.NodeID, randFn func() float64) *CP {
	m := make(map[packet.NodeID]bool, len(local))
	for _, id := range local {
		m[id] = true
	}
	return &CP{cfg: cfg, local: m, randFn: randFn}
}

// Sample implements the fabric.Switch Sampler signature: it observes a
// data packet entering an egress queue of the given length and may
// return a feedback frame addressed to the packet's source.
func (c *CP) Sample(p *packet.Packet, qlen int64) *packet.Packet {
	qOff := float64(qlen - c.cfg.QEq)
	fb := -(qOff + c.cfg.W*float64(qlen-c.qLast))
	c.qLast = qlen
	if fb >= 0 {
		return nil // no congestion: QCN sends no positive feedback
	}
	// Sampling probability: base per-byte rate, scaled up to 10x with
	// severity, as the adaptive sampling of the standard does.
	severity := math.Min(-fb/float64(c.cfg.QEq), 1)
	prob := float64(p.Size) / float64(c.cfg.SampleEvery) * (1 + 9*severity)
	if c.randFn() >= prob {
		return nil
	}
	if !c.local[p.Tuple.Src] {
		// The original Ethernet header is gone after an IP hop: the CP
		// cannot name the source. This is the §2.3 deployment blocker.
		c.Unreachable++
		return nil
	}
	quant := math.Min(-fb/float64(c.cfg.QEq)*c.cfg.MaxFb, c.cfg.MaxFb)
	c.FeedbackSent++
	out := &packet.Packet{
		Type:        packet.QCNFb,
		Flow:        p.Flow,
		Tuple:       p.Tuple.Reverse(),
		Size:        packet.ControlBytes,
		Priority:    packet.PrioControl,
		QCNFeedback: quant,
	}
	return out
}

// RP is the QCN reaction point: DCQCN's increase machinery (inherited
// from QCN) with feedback-proportional cuts instead of alpha-based ones.
type RP struct {
	*core.RP
	// Gd converts quantized feedback to a cut fraction; the standard
	// picks Gd·Fb_max = 1/2.
	Gd float64

	// Feedbacks counts QCN frames processed.
	Feedbacks int64
}

// NewRP creates a QCN reaction point with the given DCQCN-style recovery
// parameters.
func NewRP(params core.Params, clock core.Clock) *RP {
	return &RP{RP: core.NewRP(params, clock), Gd: 0.5 / 63}
}

// OnQCNFeedback cuts the rate by Gd·|Fb| (802.1Qau reaction).
func (r *RP) OnQCNFeedback(fb float64) {
	r.Feedbacks++
	r.CutRate(r.Gd * math.Abs(fb))
}

// OnCNP is a no-op: pure QCN senders do not understand RoCEv2 CNPs.
func (r *RP) OnCNP() {}

var _ rocev2.RateController = (*RP)(nil)

// LineRateParams returns RP parameters suitable for the QCN baseline:
// DCQCN's deployed recovery constants (the two algorithms share them).
func LineRateParams(lineRate simtime.Rate) core.Params {
	p := core.DefaultParams()
	p.LineRate = lineRate
	return p
}
