// A policy-table controller: congestion control as a lookup table from
// signal buckets to rate actions, the extension point shaped like
// NVIDIA's RL-CC work (Fuhrer et al., arXiv:2207.02295), where a
// reinforcement-learned policy distilled to a table/tiny network runs on
// the NIC per congestion event. Here the table is hand-written or
// JSON-loaded (-cc-params '{"rules": [...]}'); what the framework
// contributes is the event plumbing: each rule names a signal, and the
// algorithm's capability set is *derived from the table*, so a CNP-free
// policy runs with the NIC's CNP generator off.

package cc

import (
	"fmt"
	"math"

	"dcqcn/internal/core"
	"dcqcn/internal/simtime"
)

// Signal names a PolicyRule can match on.
const (
	// SignalCNP fires per received CNP; its value is always 1.
	SignalCNP = "cnp"
	// SignalECNFraction fires per ACK with the newly-acked marked fraction
	// in [0,1].
	SignalECNFraction = "ecn_fraction"
	// SignalRTTMicros fires per RTT sample with the RTT in microseconds.
	SignalRTTMicros = "rtt_us"
	// SignalHintQueueKB fires per switch-assist hint with the reported
	// occupancy in kilobytes.
	SignalHintQueueKB = "hint_queue_kb"
)

// Action names a PolicyRule can perform.
const (
	// ActionScale multiplies the rate by Arg.
	ActionScale = "scale"
	// ActionAddMbps adds Arg megabits per second to the rate.
	ActionAddMbps = "add_mbps"
	// ActionSetGbps sets the rate to Arg gigabits per second.
	ActionSetGbps = "set_gbps"
)

// PolicyRule maps one signal bucket to one rate action. A rule matches
// when the signal's value v satisfies Lo <= v, and v < Hi unless
// Hi <= Lo (which means unbounded above). The first matching rule per
// event wins; rule order is the tiebreak.
type PolicyRule struct {
	Signal string  `json:"signal"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Action string  `json:"action"`
	Arg    float64 `json:"arg"`
}

// PolicyParams configures the policy-table controller.
type PolicyParams struct {
	Rules   []PolicyRule `json:"rules"`
	MinRate simtime.Rate `json:"min_rate"`
	// LineRate caps the rate and is the starting rate.
	LineRate simtime.Rate `json:"line_rate"`
}

// Validate reports the first configuration error, or nil.
func (p *PolicyParams) Validate() error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("cc: policy table has no rules")
	}
	for i, r := range p.Rules {
		switch r.Signal {
		case SignalCNP, SignalECNFraction, SignalRTTMicros, SignalHintQueueKB:
		default:
			return fmt.Errorf("cc: policy rule %d: unknown signal %q", i, r.Signal)
		}
		switch r.Action {
		case ActionScale:
			if r.Arg <= 0 || r.Arg > 4 {
				return fmt.Errorf("cc: policy rule %d: scale arg must be in (0,4], got %g", i, r.Arg)
			}
		case ActionAddMbps:
			if math.Float64bits(r.Arg) == 0 {
				return fmt.Errorf("cc: policy rule %d: add_mbps arg must be non-zero", i)
			}
		case ActionSetGbps:
			if r.Arg <= 0 {
				return fmt.Errorf("cc: policy rule %d: set_gbps arg must be positive, got %g", i, r.Arg)
			}
		default:
			return fmt.Errorf("cc: policy rule %d: unknown action %q", i, r.Action)
		}
	}
	if p.MinRate <= 0 || p.LineRate <= p.MinRate {
		return fmt.Errorf("cc: policy need 0 < MinRate < LineRate, got %v, %v", p.MinRate, p.LineRate)
	}
	return nil
}

// caps derives the capability set from the signals the table references.
func (p *PolicyParams) caps() Capability {
	var c Capability
	for _, r := range p.Rules {
		switch r.Signal {
		case SignalCNP:
			c |= CapCNP
		case SignalECNFraction:
			c |= CapAckECN
		case SignalRTTMicros:
			c |= CapRTT
		case SignalHintQueueKB:
			c |= CapHint
		}
	}
	return c
}

// Policy is the table-driven controller for one flow.
type Policy struct {
	p      PolicyParams
	rate   simtime.Rate
	onRate func(simtime.Rate)

	// Applied counts rule applications (for tests and probes).
	Applied int64
}

// NewPolicy creates a controller starting at line rate.
func NewPolicy(p PolicyParams) *Policy {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Policy{p: p, rate: p.LineRate}
}

// Rate returns the current paced rate.
func (c *Policy) Rate() simtime.Rate { return c.rate }

// OnBytesSent is a no-op: the table reacts to feedback events only.
func (c *Policy) OnBytesSent(int64) {}

// Stop is a no-op (no timers).
func (c *Policy) Stop() {}

// SetRateListener registers the NIC's pacing re-arm hook.
func (c *Policy) SetRateListener(fn func(simtime.Rate)) { c.onRate = fn }

// react looks up (signal, value) in the table and applies the first
// matching rule. The NIC delivers every signal Policy has a reactor for;
// a signal no rule names matches nothing and changes nothing.
//
//hot:path per-signal table lookup
func (c *Policy) react(signal string, v float64) {
	for i := range c.p.Rules {
		r := &c.p.Rules[i]
		if r.Signal != signal || v < r.Lo || (r.Hi > r.Lo && v >= r.Hi) {
			continue
		}
		c.Applied++
		prev := c.rate
		switch r.Action {
		case ActionScale:
			c.rate = c.rate * simtime.Rate(r.Arg)
		case ActionAddMbps:
			c.rate += simtime.Rate(r.Arg) * simtime.Mbps
		case ActionSetGbps:
			c.rate = simtime.Rate(r.Arg) * simtime.Gbps
		}
		if c.rate < c.p.MinRate {
			c.rate = c.p.MinRate
		}
		if c.rate > c.p.LineRate {
			c.rate = c.p.LineRate
		}
		// Bit comparison, not float ==: notify exactly when the stored
		// representation moved (the idiom core.RP.setRC uses).
		if math.Float64bits(float64(c.rate)) != math.Float64bits(float64(prev)) && c.onRate != nil {
			c.onRate(c.rate)
		}
		return
	}
}

// OnCNP fires the "cnp" signal with value 1.
func (c *Policy) OnCNP() { c.react(SignalCNP, 1) }

// OnAck fires the "ecn_fraction" signal with the sample's marked fraction.
//
//hot:path per-ACK signal delivery
func (c *Policy) OnAck(s AckSample) {
	if s.Packets == 0 {
		return
	}
	c.react(SignalECNFraction, s.Fraction())
}

// OnRTT fires the "rtt_us" signal.
func (c *Policy) OnRTT(rtt simtime.Duration) {
	c.react(SignalRTTMicros, rtt.Seconds()*1e6)
}

// OnSwitchHint fires the "hint_queue_kb" signal.
func (c *Policy) OnSwitchHint(h SwitchHint) {
	c.react(SignalHintQueueKB, float64(h.QueueBytes)/1000)
}

// policyDefaults is a conservative DCTCP-flavoured default table: gentle
// additive probing while ACKs come back clean, multiplicative backoff
// scaled to the echoed mark fraction. It references only ecn_fraction,
// so the derived capability set is exactly CapAckECN.
func policyDefaults(lineRate simtime.Rate) Params {
	return &PolicyParams{
		Rules: []PolicyRule{
			{Signal: SignalECNFraction, Lo: 0, Hi: 0.01, Action: ActionAddMbps, Arg: 2},
			{Signal: SignalECNFraction, Lo: 0.01, Hi: 0.3, Action: ActionScale, Arg: 0.98},
			{Signal: SignalECNFraction, Lo: 0.3, Hi: 0, Action: ActionScale, Arg: 0.9},
		},
		MinRate:  10 * simtime.Mbps,
		LineRate: lineRate,
	}
}

func newPolicy(p Params, _ core.Clock) Controller {
	return NewPolicy(*p.(*PolicyParams))
}

var (
	_ Controller  = (*Policy)(nil)
	_ AckReactor  = (*Policy)(nil)
	_ RTTReactor  = (*Policy)(nil)
	_ HintReactor = (*Policy)(nil)
)
