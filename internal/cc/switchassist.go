// Switch-assisted throttling, after Abdelmoniem & Bensaou ("SICC" /
// switch-assisted congestion control, arXiv:2106.14100): the switch —
// which sees the congested queue directly — tells sources how congested
// it is, instead of the one-bit-per-CNP signal DCQCN extracts from ECN
// marks. The fabric side is a per-switch sampler (the same hook QCN's
// congestion point uses) that, while an egress queue exceeds QMin, emits
// an occupancy Hint toward a flow's source every HintBytes of that
// flow's traffic. The sender side maps occupancy linearly onto a cut
// fraction and reuses DCQCN's recovery machinery (fast recovery /
// additive / hyper increase) between hints, so the two algorithms differ
// exactly in their congestion *signal*, which is what the head-to-head
// sweep isolates. Unlike QCN the hint carries the flow's IP tuple, so it
// crosses L2 domains like a CNP does (the §2.3 blocker does not apply).

package cc

import (
	"fmt"

	"dcqcn/internal/core"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

// SwitchAssistParams configures switch-assisted throttling.
type SwitchAssistParams struct {
	// RP supplies DCQCN's recovery machinery (timers, byte counter,
	// increase steps, rate bounds). Its marking/NP fields are unused: the
	// algorithm replaces ECN marking with explicit hints.
	RP core.Params `json:"RP"`
	// QMin is the egress occupancy at which hinting starts; below it the
	// fabric is silent. QMax is the occupancy mapped to MaxCut; between
	// them the cut fraction interpolates linearly.
	QMin int64 `json:"QMin"`
	QMax int64 `json:"QMax"`
	// MinCut and MaxCut bound the per-hint multiplicative cut fraction.
	MinCut float64 `json:"MinCut"`
	MaxCut float64 `json:"MaxCut"`
	// HintBytes is the per-flow byte spacing between hints while the
	// queue stays above QMin — the sampler's rate limiter, playing the
	// role CNPInterval plays for DCQCN's NP.
	HintBytes int64 `json:"HintBytes"`
}

// Validate reports the first configuration error, or nil.
func (p *SwitchAssistParams) Validate() error {
	if err := p.RP.Validate(); err != nil {
		return err
	}
	switch {
	case p.QMin <= 0 || p.QMax <= p.QMin:
		return fmt.Errorf("cc: switch-assist need 0 < QMin < QMax, got %d, %d", p.QMin, p.QMax)
	case p.MinCut <= 0 || p.MaxCut < p.MinCut || p.MaxCut >= 1:
		return fmt.Errorf("cc: switch-assist need 0 < MinCut <= MaxCut < 1, got %g, %g", p.MinCut, p.MaxCut)
	case p.HintBytes <= 0:
		return fmt.Errorf("cc: switch-assist HintBytes must be positive, got %d", p.HintBytes)
	}
	return nil
}

// SwitchAssist is the sender side: DCQCN's RP with occupancy-driven cuts
// instead of CNP-driven ones.
type SwitchAssist struct {
	*core.RP
	qMin, qMax     int64
	minCut, maxCut float64

	// Hints counts occupancy hints processed.
	Hints int64
}

// NewSwitchAssist creates a controller for one flow.
func NewSwitchAssist(p SwitchAssistParams, clock core.Clock) *SwitchAssist {
	return &SwitchAssist{
		RP:   core.NewRP(p.RP, clock),
		qMin: p.QMin, qMax: p.QMax,
		minCut: p.MinCut, maxCut: p.MaxCut,
	}
}

// OnCNP is a no-op: fabric hints replace end-to-end CNPs.
func (c *SwitchAssist) OnCNP() {}

// SetRateListener maps onto the RP's OnRateChange hook.
func (c *SwitchAssist) SetRateListener(fn func(simtime.Rate)) { c.RP.OnRateChange = fn }

// Unwrap exposes the underlying RP state machine.
func (c *SwitchAssist) Unwrap() rocev2.RateController { return c.RP }

// OnSwitchHint cuts the rate by a fraction proportional to how deep into
// the [QMin, QMax] band the reported occupancy lies.
//
//hot:path hint signal delivery
func (c *SwitchAssist) OnSwitchHint(h SwitchHint) {
	c.Hints++
	depth := float64(h.QueueBytes-c.qMin) / float64(c.qMax-c.qMin)
	if depth < 0 {
		depth = 0
	} else if depth > 1 {
		depth = 1
	}
	c.CutRate(c.minCut + (c.maxCut-c.minCut)*depth)
}

func switchAssistDefaults(lineRate simtime.Rate) Params {
	rp := core.DefaultParams()
	rp.LineRate = lineRate
	return &SwitchAssistParams{
		RP:        rp,
		QMin:      50 * 1000,
		QMax:      400 * 1000,
		MinCut:    0.05,
		MaxCut:    0.5,
		HintBytes: 75 * 1000,
	}
}

func newSwitchAssist(p Params, clock core.Clock) Controller {
	return NewSwitchAssist(*p.(*SwitchAssistParams), clock)
}

// switchAssistSampler is the fabric side: per-flow byte counting while
// the queue exceeds QMin, one Hint per HintBytes. It is deterministic
// and clockless.
func switchAssistSampler(p Params, _ FabricContext) SamplerFunc {
	sp := p.(*SwitchAssistParams)
	counted := map[packet.FlowID]int64{}
	// The sampler runs per egress enqueue, but a func literal takes no
	// //hot:path directive (only a func declaration's doc comment
	// does), so the escape audit does not see it.
	// TestAllocBudgetSwitchAssistSampler guards its allocations.
	return func(pkt *packet.Packet, qlen int64) *packet.Packet {
		if qlen <= sp.QMin {
			return nil
		}
		n := counted[pkt.Flow] + int64(pkt.Size)
		if n < sp.HintBytes {
			counted[pkt.Flow] = n
			return nil
		}
		counted[pkt.Flow] = 0
		return packet.NewHint(pkt.Flow, pkt.Tuple, qlen)
	}
}

var (
	_ Controller  = (*SwitchAssist)(nil)
	_ HintReactor = (*SwitchAssist)(nil)
	_ Unwrapper   = (*SwitchAssist)(nil)
)
