// A rate-based DCTCP-style controller: the ECN-fraction law of Alizadeh
// et al. (SIGCOMM 2010) applied to a paced rate instead of a congestion
// window. The DCQCN paper's §3.3 explains why window-based DCTCP cannot
// run on RoCEv2 NICs directly (no per-packet ACK clocking in hardware);
// this controller is the natural rate-based transliteration the cc
// framework makes expressible: the receiver echoes exact per-ACK mark
// counts (packet.AckMarked), the sender maintains the EWMA marked
// fraction alpha and cuts proportionally to alpha/2 once per window.

package cc

import (
	"fmt"
	"math"

	"dcqcn/internal/core"
	"dcqcn/internal/simtime"
)

// DCTCPParams configures the DCTCP-style ECN-fraction controller.
type DCTCPParams struct {
	// G is the EWMA gain of the alpha update (DCTCP paper: 1/16).
	G float64 `json:"G"`
	// WindowBytes is the payload budget per control decision — the
	// rate-based stand-in for one congestion window / RTT of data.
	WindowBytes int64 `json:"WindowBytes"`
	// RAI is the additive increase applied per unmarked window.
	RAI simtime.Rate `json:"RAI"`
	// MinRate and LineRate bound the rate.
	MinRate  simtime.Rate `json:"MinRate"`
	LineRate simtime.Rate `json:"LineRate"`
}

// Validate reports the first configuration error, or nil.
func (p *DCTCPParams) Validate() error {
	switch {
	case p.G <= 0 || p.G > 1:
		return fmt.Errorf("cc: dctcp G must be in (0,1], got %g", p.G)
	case p.WindowBytes <= 0:
		return fmt.Errorf("cc: dctcp WindowBytes must be positive, got %d", p.WindowBytes)
	case p.RAI <= 0:
		return fmt.Errorf("cc: dctcp RAI must be positive, got %v", p.RAI)
	case p.MinRate <= 0 || p.LineRate <= p.MinRate:
		return fmt.Errorf("cc: dctcp need 0 < MinRate < LineRate, got %v, %v", p.MinRate, p.LineRate)
	}
	return nil
}

// DCTCPStats counts controller activity (exported for tests and probes).
type DCTCPStats struct {
	Windows   int64
	Cuts      int64
	Increases int64
}

// DCTCPRate is the controller. It consumes per-ACK ECN-echo samples
// (CapAckECN) and needs neither CNPs nor a clock: windows are delimited
// by acknowledged bytes.
type DCTCPRate struct {
	p     DCTCPParams
	rate  simtime.Rate
	alpha float64

	// current-window accumulators
	ackedBytes      int64
	packets, marked int

	onRate func(simtime.Rate)

	Stats DCTCPStats
}

// NewDCTCPRate creates a controller starting at line rate.
func NewDCTCPRate(p DCTCPParams) *DCTCPRate {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &DCTCPRate{p: p, rate: p.LineRate}
}

// Rate returns the current paced rate.
func (c *DCTCPRate) Rate() simtime.Rate { return c.rate }

// Alpha returns the EWMA marked fraction (for tests and probes).
func (c *DCTCPRate) Alpha() float64 { return c.alpha }

// OnCNP is a no-op: the controller reads marks from ACK echoes instead.
func (c *DCTCPRate) OnCNP() {}

// OnBytesSent is a no-op: windows are delimited by acked, not sent, bytes.
func (c *DCTCPRate) OnBytesSent(int64) {}

// Stop is a no-op (no timers).
func (c *DCTCPRate) Stop() {}

// SetRateListener registers the NIC's pacing re-arm hook.
func (c *DCTCPRate) SetRateListener(fn func(simtime.Rate)) { c.onRate = fn }

// OnAck accumulates one ACK's echo into the current window and runs the
// DCTCP control law at each window boundary.
//
//hot:path per-ACK signal delivery
func (c *DCTCPRate) OnAck(s AckSample) {
	c.ackedBytes += s.PayloadBytes
	c.packets += s.Packets
	c.marked += s.Marked
	if c.ackedBytes < c.p.WindowBytes || c.packets == 0 {
		return
	}
	c.Stats.Windows++
	frac := float64(c.marked) / float64(c.packets)
	c.alpha = (1-c.p.G)*c.alpha + c.p.G*frac

	prev := c.rate
	if c.marked > 0 {
		c.Stats.Cuts++
		c.rate = c.rate * simtime.Rate(1-c.alpha/2)
		if c.rate < c.p.MinRate {
			c.rate = c.p.MinRate
		}
	} else {
		c.Stats.Increases++
		c.rate += c.p.RAI
		if c.rate > c.p.LineRate {
			c.rate = c.p.LineRate
		}
	}
	c.ackedBytes, c.packets, c.marked = 0, 0, 0
	// Bit comparison, not float ==: notify exactly when the stored
	// representation moved (the idiom core.RP.setRC uses).
	if math.Float64bits(float64(c.rate)) != math.Float64bits(float64(prev)) && c.onRate != nil {
		c.onRate(c.rate)
	}
}

func dctcpDefaults(lineRate simtime.Rate) Params {
	return &DCTCPParams{
		G:           1.0 / 16,
		WindowBytes: 150 * 1000,
		RAI:         400 * simtime.Mbps,
		MinRate:     10 * simtime.Mbps,
		LineRate:    lineRate,
	}
}

func newDCTCP(p Params, _ core.Clock) Controller {
	return NewDCTCPRate(*p.(*DCTCPParams))
}

var (
	_ Controller = (*DCTCPRate)(nil)
	_ AckReactor = (*DCTCPRate)(nil)
)
