// Package cc is the pluggable congestion-control subsystem: a Controller
// interface richer than rocev2.RateController, a named registry of
// algorithms with typed parameter sets, and the adapters that put every
// controller in the repository — DCQCN, fixed-rate, QCN, TIMELY, a
// DCTCP-style ECN-fraction controller, switch-assisted throttling
// (Abdelmoniem & Bensaou, arXiv:2106.14100) and a JSON-loadable policy
// table (the RL-CC-shaped extension point, arXiv:2207.02295) — behind
// one selection surface, so `dcqcn-sweep -cc=...` can run the same
// scenarios head-to-head per algorithm.
//
// # Signals and capability discovery
//
// Controllers receive signals (CNPs, per-ACK ECN-echo fractions, RTT
// samples, bytes sent, switch occupancy hints) and act by moving the
// flow's rate. Each controller declares the signals it consumes via
// Capabilities(); the NIC discovers them once per flow at OpenFlow and
// stores typed reactor references, so the per-packet receive path pays a
// nil check — not an interface type assertion — for every signal the
// controller does not use.
//
// # Fabric-side hooks
//
// Algorithms whose congestion point lives in the fabric (QCN, switch-
// assist) also provide a Sampler constructor. The topology layer attaches
// one sampler per switch through the same fabric.Switch.Sampler hook the
// fault-injection and QCN baselines use; samplers observe data packets at
// egress enqueue and may emit a feedback frame toward the flow's source.
package cc

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dcqcn/internal/core"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

// Capability is the bitmask of congestion signals a controller consumes.
// The NIC subscribes a flow's controller only to the signals it declares,
// so unconsumed signals cost nothing on the hot receive path.
type Capability uint32

// Capability bits.
const (
	// CapCNP: RoCEv2 Congestion Notification Packets (DCQCN's NP→RP path).
	CapCNP Capability = 1 << iota
	// CapAckECN: per-ACK ECN-echo counts (DCTCP-style fraction control).
	CapAckECN
	// CapRTT: per-ACK RTT samples (TIMELY-style delay control).
	CapRTT
	// CapBytesSent: wire-byte accounting (DCQCN/QCN byte-counter stages).
	CapBytesSent
	// CapQCN: 802.1Qau quantized feedback frames (L2 baseline).
	CapQCN
	// CapHint: switch-assist occupancy hints emitted by fabric samplers.
	CapHint
)

// String renders the capability set for -list-cc and provenance.
func (c Capability) String() string {
	if c == 0 {
		return "none"
	}
	names := []struct {
		bit  Capability
		name string
	}{
		{CapCNP, "cnp"}, {CapAckECN, "ack-ecn"}, {CapRTT, "rtt"},
		{CapBytesSent, "bytes-sent"}, {CapQCN, "qcn"}, {CapHint, "hint"},
	}
	var parts []string
	for _, n := range names {
		if c&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "+")
}

// Controller is the congestion-control interface of the framework: the
// rate-based action surface of rocev2.RateController plus capability
// discovery and an eager rate-change listener. Controllers additionally
// implement the reactor interfaces matching their declared capabilities
// (OnRTT for CapRTT, OnAck for CapAckECN, OnQCNFeedback for CapQCN,
// OnSwitchHint for CapHint).
type Controller interface {
	rocev2.RateController

	// Capabilities returns the set of signals this instance consumes. It
	// is called once per flow, at OpenFlow time.
	Capabilities() Capability

	// SetRateListener registers the NIC's pacing re-arm hook, invoked
	// after every rate change so cuts take effect immediately rather than
	// at the next packet boundary. Controllers that only move the rate at
	// packet boundaries may ignore the listener; passing nil unregisters.
	SetRateListener(fn func(simtime.Rate))
}

// Unwrapper is implemented by adapters over pre-framework controllers so
// inspection surfaces (the facade's ReactionPoint, experiment probes) can
// reach the underlying state machine.
type Unwrapper interface {
	Unwrap() rocev2.RateController
}

// Unwrap returns the innermost controller behind any chain of adapters.
func Unwrap(ctrl rocev2.RateController) rocev2.RateController {
	for {
		u, ok := ctrl.(Unwrapper)
		if !ok {
			return ctrl
		}
		ctrl = u.Unwrap()
	}
}

// AckSample is the per-acknowledgement signal: what one cumulative ACK
// newly acknowledged and how much of it the fabric had CE-marked.
type AckSample struct {
	// Packets and Marked count the in-order data packets this ACK newly
	// covers and how many of them arrived CE-marked.
	Packets, Marked int
	// PayloadBytes is the newly acknowledged payload.
	PayloadBytes int64
}

// Fraction returns the marked fraction of the sample (0 when empty).
func (s AckSample) Fraction() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.Marked) / float64(s.Packets)
}

// AckReactor is implemented by controllers that consume per-ACK ECN-echo
// samples (CapAckECN).
type AckReactor interface {
	OnAck(s AckSample)
}

// RTTReactor is implemented by delay-based controllers (CapRTT): they
// receive an RTT sample per acknowledgement. The NIC probes legacy
// controllers built outside the registry (timely.Factory) for it too.
type RTTReactor interface {
	OnRTT(rtt simtime.Duration)
}

// QCNReactor is implemented by controllers consuming quantized 802.1Qau
// feedback (CapQCN). The NIC probes legacy controllers built outside
// the registry (qcn.Factory) for it too.
type QCNReactor interface {
	OnQCNFeedback(fb float64)
}

// SwitchHint is the fabric-assist signal: a congested switch names the
// egress occupancy it observed when the flow's traffic passed through.
type SwitchHint struct {
	// QueueBytes is the egress queue depth at enqueue time.
	QueueBytes int64
}

// HintReactor is implemented by controllers consuming switch-assist
// occupancy hints (CapHint).
type HintReactor interface {
	OnSwitchHint(h SwitchHint)
}

// Params is an algorithm's typed parameter set. Implementations are
// pointers to plain structs so defaults can be refined via JSON overlays
// (-cc-params) and mutated by the registry fuzz tests.
type Params interface {
	Validate() error
}

// SamplerFunc matches fabric.Switch.Sampler: observe a data packet
// entering an egress queue of the given depth, optionally return a
// feedback frame addressed to the packet's source.
type SamplerFunc func(p *packet.Packet, egressQueueBytes int64) *packet.Packet

// FabricContext describes one switch to a fabric-side sampler
// constructor.
type FabricContext struct {
	// Switch is the switch's name (for diagnostics).
	Switch string
	// LocalHosts are the hosts attached at L2 — the only sources an
	// 802.1Qau congestion point can address (§2.3 of the DCQCN paper).
	LocalHosts []packet.NodeID
	// Rand is a deterministic uniform [0,1) source private to this
	// switch, derived from the simulation seed (engine.Sim.NewStream).
	Rand func() float64
}

// Algorithm is one registered congestion-control algorithm.
type Algorithm struct {
	// Name is the registry key (`-cc=<name>`).
	Name string
	// Description is the one-line summary printed by -list-cc.
	Description string
	// Defaults returns the algorithm's default parameters scaled to the
	// given line rate. The result is a fresh pointer each call.
	Defaults func(lineRate simtime.Rate) Params
	// New builds a controller for one flow. p is the (validated) result
	// of Defaults, possibly refined; clock is the flow's simulation
	// clock.
	New func(p Params, clock core.Clock) Controller
	// Caps reports the signal set controllers built from p will consume;
	// the experiment layer uses it to configure the fabric (NP on/off,
	// marking, ACK density, samplers) before any controller exists.
	Caps func(p Params) Capability
	// Sampler, if non-nil, constructs the fabric-side congestion point
	// attached to every switch (QCN, switch-assist). Nil for end-to-end
	// algorithms.
	Sampler func(p Params, ctx FabricContext) SamplerFunc
}

// registry is the process-wide algorithm table. It is written only by
// package init (Register panics on duplicates) and read-only afterwards,
// so concurrent sweep workers may consult it freely.
var registry = map[string]Algorithm{}

// Register adds an algorithm to the registry. It panics on an empty or
// duplicate name and on missing constructors — registration errors are
// programming errors, caught by the package's own init.
func Register(a Algorithm) {
	switch {
	case a.Name == "":
		panic("cc: Register with empty name")
	case a.Defaults == nil || a.New == nil || a.Caps == nil:
		panic(fmt.Sprintf("cc: algorithm %q missing Defaults/New/Caps", a.Name))
	}
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("cc: duplicate algorithm %q", a.Name))
	}
	registry[a.Name] = a
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named algorithm.
func Lookup(name string) (Algorithm, bool) {
	a, ok := registry[name]
	return a, ok
}

// Selection binds an algorithm to a concrete parameter set — what a
// `-cc=<name>` flag resolves to and what provenance records.
type Selection struct {
	Name      string
	Algorithm Algorithm
	Params    Params
}

// Select resolves one algorithm name with defaults for the given line
// rate. Unknown names return an error listing what is registered.
func Select(name string, lineRate simtime.Rate) (Selection, error) {
	a, ok := registry[name]
	if !ok {
		return Selection{}, fmt.Errorf("cc: unknown algorithm %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	p := a.Defaults(lineRate)
	if err := p.Validate(); err != nil {
		return Selection{}, fmt.Errorf("cc: %s defaults invalid: %w", name, err)
	}
	return Selection{Name: name, Algorithm: a, Params: p}, nil
}

// ParseSelections resolves a comma-separated `-cc` flag value into one
// selection per name, rejecting duplicates and unknown names cleanly.
func ParseSelections(spec string, lineRate simtime.Rate) ([]Selection, error) {
	var sels []Selection
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("cc: algorithm %q selected twice", name)
		}
		seen[name] = true
		sel, err := Select(name, lineRate)
		if err != nil {
			return nil, err
		}
		sels = append(sels, sel)
	}
	if len(sels) == 0 {
		return nil, fmt.Errorf("cc: empty -cc selection (registered: %s)", strings.Join(Names(), ", "))
	}
	return sels, nil
}

// Caps returns the signal set of the selection.
func (s Selection) Caps() Capability { return s.Algorithm.Caps(s.Params) }

// Factory returns a nic.Config-compatible controller factory for the
// selection.
func (s Selection) Factory() func(core.Clock) rocev2.RateController {
	return func(clock core.Clock) rocev2.RateController {
		return s.Algorithm.New(s.Params, clock)
	}
}

// ParamsJSON renders the selection's parameters for provenance and
// -list-cc. Parameter structs are plain data; a marshal failure is a
// programming error.
func (s Selection) ParamsJSON() json.RawMessage {
	data, err := json.Marshal(s.Params)
	if err != nil {
		panic(fmt.Sprintf("cc: marshal %s params: %v", s.Name, err))
	}
	return data
}

// ApplyParamsJSON overlays a JSON object onto the selection's parameter
// struct and revalidates — the `-cc-params` path. Unknown fields are
// rejected so typos fail loudly.
func (s *Selection) ApplyParamsJSON(data []byte) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s.Params); err != nil {
		return fmt.Errorf("cc: %s params: %w", s.Name, err)
	}
	if err := s.Params.Validate(); err != nil {
		return fmt.Errorf("cc: %s params: %w", s.Name, err)
	}
	return nil
}
