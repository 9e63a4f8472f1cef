package core

// MarkingProbability implements the congestion-point marking law of
// Fig. 5 / Eq. (5): the RED profile all modern shared-buffer switches
// support. queueBytes is the instantaneous egress queue length.
//
//	q <= KMin          -> 0
//	KMin < q <= KMax   -> (q-KMin)/(KMax-KMin) * PMax
//	q > KMax           -> 1
//
// With KMin == KMax it degenerates to DCTCP-style cut-off marking:
// nothing below the threshold, everything above it. It takes a pointer
// because it runs on every ECN-capable forward and every fluid port
// step, and a value receiver makes the inlined call copy all of Params
// to read three fields.
func (p *Params) MarkingProbability(queueBytes int64) float64 {
	switch {
	case queueBytes <= p.KMin:
		return 0
	case queueBytes <= p.KMax:
		// KMax > KMin here: queueBytes > KMin rules out the degenerate
		// case, which the first branch fully absorbs when KMin == KMax.
		return float64(queueBytes-p.KMin) / float64(p.KMax-p.KMin) * p.PMax
	default:
		return 1
	}
}

// CP is the switch-side marking decision process: a stateless RED profile
// plus the random coin, kept separate from Params so each egress queue
// can count its marking activity.
type CP struct {
	params Params
	randFn func() float64

	// Marked and Seen count marked and total ECN-capable packets.
	Marked int64
	Seen   int64
}

// NewCP creates a congestion point using randFn (a uniform [0,1) source,
// typically rng.Float64) for the RED coin.
func NewCP(params Params, randFn func() float64) *CP {
	return &CP{params: params, randFn: randFn}
}

// ShouldMark decides whether a packet entering an egress queue of the
// given length receives a CE mark.
func (c *CP) ShouldMark(queueBytes int64) bool {
	c.Seen++
	p := c.params.MarkingProbability(queueBytes)
	if p <= 0 {
		return false
	}
	if p >= 1 || c.randFn() < p {
		c.Marked++
		return true
	}
	return false
}
