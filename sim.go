package dcqcn

import (
	"io"

	"dcqcn/internal/cc"
	"dcqcn/internal/core"
	"dcqcn/internal/flightrec"
	"dcqcn/internal/hybrid"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// Options configures network construction. Obtain a baseline from
// DefaultOptions and refine it with the With... helpers.
type Options struct {
	inner topology.Options
}

// DefaultOptions returns the paper's deployed configuration: DCQCN with
// the Fig. 14 parameters on 40 Gb/s links, PFC with dynamic thresholds
// per §4, and RED/ECN marking.
func DefaultOptions() Options {
	return Options{inner: topology.DefaultOptions()}
}

// WithDCQCN replaces the DCQCN parameter set used by NICs and switches.
func (o Options) WithDCQCN(params Params) Options {
	topology.ApplyCC(&o.inner, cc.DCQCN(params), true)
	o.inner.NIC.NP = params
	o.inner.Switch.Marking = params
	return o
}

// WithPFCOnly disables congestion control entirely: uncontrolled
// line-rate senders over a lossless PFC fabric (the paper's "No DCQCN"
// baseline, which exhibits the Fig. 3/4 pathologies). It is the "fixed"
// algorithm of the cc registry, which consumes no signal, so CNP
// generation and ECN marking are switched off.
func (o Options) WithPFCOnly() Options {
	topology.ApplyCC(&o.inner, cc.Fixed(o.inner.NIC.LineRate), true)
	return o
}

// WithoutPFC disables PFC (packets may be tail-dropped, Fig. 18).
func (o Options) WithoutPFC() Options {
	o.inner.Switch.PFCEnabled = false
	return o
}

// WithECMPSeed perturbs every switch's ECMP hash, re-rolling flow
// placement.
func (o Options) WithECMPSeed(seed uint64) Options {
	o.inner.ECMPSeedBase = seed
	return o
}

// WithLinkDelay sets host and fabric one-way propagation delays.
func (o Options) WithLinkDelay(d Duration) Options {
	o.inner.HostLinkDelay = d
	o.inner.FabricLinkDelay = d
	return o
}

// WithHostsPerToR sets testbed host fan-out (default 5, as in §6.2).
func (o Options) WithHostsPerToR(n int) Options {
	o.inner.HostsPerToR = n
	return o
}

// WithBackgroundFlows models n long-lived background flows as a fluid
// DCQCN substrate (internal/hybrid): flows are folded into per-class
// ODEs integrated on the simulation clock, contribute queue occupancy
// and ECN-marking pressure to the fabric's shared buffers, and back
// off under the same marking the packet traffic sees — at a cost
// independent of n. Flows are spread over host pairs by the default
// placement. n = 0 arms nothing and leaves runs bit-identical.
//
// The substrate snapshots the switch marking profile when this option
// is applied, so call it after WithDCQCN/WithPFCOnly/WithCC.
func (o Options) WithBackgroundFlows(n int) Options {
	cfg := hybrid.DefaultConfig()
	cfg.Params = o.inner.Switch.Marking
	o.inner.Background = hybrid.Armer(cfg, n)
	return o
}

// WithCC selects a congestion-control algorithm from the internal/cc
// registry by name ("dcqcn", "timely", "dctcp", "switch-assist",
// "policy", ...; see the cc package) and wires every capability it
// declares — CNP generation, ECN-echo ACK accounting, RTT echoes,
// fabric occupancy hints — through the NICs and switches. It returns an
// error for unknown names, listing the registered algorithms.
func (o Options) WithCC(name string) (Options, error) {
	sel, err := cc.Select(name, o.inner.NIC.LineRate)
	if err != nil {
		return o, err
	}
	topology.ApplyCC(&o.inner, sel, true)
	return o, nil
}

// Network is a built, routed simulation: hosts, switches and the clock.
type Network struct {
	net *topology.Network
}

// NewTestbedNetwork builds the paper's Fig. 2 three-tier Clos testbed:
// ToRs T1-T4, leaves L1-L4, spines S1-S2, and HostsPerToR hosts per ToR
// named H11..H45. seed drives all randomness; equal seeds give
// bit-identical runs.
func NewTestbedNetwork(seed int64, opts Options) *Network {
	return &Network{net: topology.NewTestbed(seed, opts.inner)}
}

// NewStarNetwork builds hosts H1..Hn around a single switch SW — the
// microbenchmark rig of §6.1.
func NewStarNetwork(seed int64, hosts int, opts Options) *Network {
	return &Network{net: topology.NewStar(seed, hosts, opts.inner)}
}

// Host returns a host endpoint by name (H11.. on the testbed, H1.. on a
// star). It panics on unknown names: scenario construction errors are
// programming errors.
func (n *Network) Host(name string) *Host {
	return &Host{nic: n.net.Host(name)}
}

// HostNames lists hosts in creation order.
func (n *Network) HostNames() []string { return n.net.HostNames() }

// Now returns the current simulated time.
func (n *Network) Now() Time { return n.net.Sim.Now() }

// RunFor advances the simulation by d.
func (n *Network) RunFor(d Duration) { n.net.Sim.Run(n.net.Sim.Now().Add(d)) }

// RunUntil advances the simulation to absolute time t.
func (n *Network) RunUntil(t Time) { n.net.Sim.Run(t) }

// Digest returns the engine's event digest as "events:hash". Equal
// seeds and workloads produce equal digests, which is how the tests pin
// determinism.
func (n *Network) Digest() string { return n.net.Sim.Digest().String() }

// At schedules fn at absolute simulated time t.
func (n *Network) At(t Time, fn func()) { n.net.Sim.At(t, fn) }

// Every invokes fn every period until the returned stop function is
// called — the facade's one sampling primitive, for rate and queue time
// series (dcqcn-sim -series samples through it).
func (n *Network) Every(period Duration, fn func(now Time)) (stop func()) {
	return n.net.Sim.Ticker(period, fn)
}

// SwitchStats summarizes one switch's counters.
type SwitchStats struct {
	Forwarded     int64
	Drops         int64
	PauseSent     int64
	PauseReceived int64
	EcnMarked     int64
	MaxOccupied   int64
}

// Switch returns a switch's counters by name (SW on a star; T1..T4,
// L1..L4, S1, S2 on the testbed).
func (n *Network) Switch(name string) SwitchStats {
	sw := n.net.Switch(name)
	return SwitchStats{
		Forwarded:     sw.Stats.Forwarded,
		Drops:         sw.Stats.Drops,
		PauseSent:     sw.Stats.PauseSent,
		PauseReceived: sw.PauseReceived(),
		EcnMarked:     sw.Stats.EcnMarked,
		MaxOccupied:   sw.Stats.MaxOccupied,
	}
}

// QueueLength returns the egress data-class queue (bytes) of the switch
// port facing the named host — the quantity the paper's latency analysis
// samples.
func (n *Network) QueueLength(switchName string, port int) int64 {
	return n.net.Switch(switchName).EgressQueue(port, packet.PrioData)
}

// TotalDrops sums packet drops across every switch.
func (n *Network) TotalDrops() int64 {
	var total int64
	for _, sw := range n.net.Switches {
		total += sw.Stats.Drops
	}
	return total
}

// Host is one server endpoint (an RDMA NIC).
type Host struct {
	nic *nic.NIC
}

// NodeID returns the host's network address.
func (h *Host) NodeID() packet.NodeID { return h.nic.ID }

// Name returns the host's name.
func (h *Host) Name() string { return h.nic.Name }

// OpenFlow creates a flow (queue pair plus congestion controller) toward
// the destination host.
func (h *Host) OpenFlow(dst packet.NodeID) *Flow {
	return &Flow{inner: h.nic.OpenFlow(dst)}
}

// CNPsSent returns the number of congestion notifications this host's
// NIC generated as a receiver.
func (h *Host) CNPsSent() int64 { return h.nic.Stats.CNPsSent }

// CNPsReceived returns congestion notifications received as a sender.
func (h *Host) CNPsReceived() int64 { return h.nic.Stats.CNPsReceived }

// Completion describes one finished message transfer.
type Completion = rocev2.Completion

// FlowStats counts one flow's transport activity.
type FlowStats = rocev2.SenderStats

// Flow is an open sender queue pair.
type Flow struct {
	inner *nic.Flow
}

// PostMessage queues size bytes for transmission; onComplete (optional)
// fires when the whole message has been acknowledged.
func (f *Flow) PostMessage(size int64, onComplete func(Completion)) {
	f.inner.PostMessage(size, onComplete)
}

// CurrentRate returns the rate the flow's rate limiter allows right now:
// line rate when unlimited, the DCQCN RC when congestion-controlled.
func (f *Flow) CurrentRate() Rate { return f.inner.CurrentRate() }

// Stats returns transport counters (bytes sent/acked, retransmits, ...).
func (f *Flow) Stats() FlowStats { return f.inner.Stats() }

// ReactionPoint returns the flow's DCQCN RP for state inspection, or nil
// when the flow runs another controller. Controllers from the cc
// registry are unwrapped, so the DCQCN algorithm exposes its RP whether
// selected directly or by name.
func (f *Flow) ReactionPoint() *RP {
	rp, _ := cc.Unwrap(f.inner.Controller()).(*core.RP)
	return rp
}

// Close releases the flow.
func (f *Flow) Close() { f.inner.Close() }

// LineRate40G is the testbed port speed.
const LineRate40G = 40 * simtime.Gbps

// UplinkOf returns which egress port the named switch would pick for the
// flow — the ECMP decision. Experiments that need hash collisions (the
// §7 parking lot) open flows until two share an uplink.
func (n *Network) UplinkOf(switchName string, f *Flow) int {
	port, ok := n.net.Switch(switchName).RouteChoice(f.inner.Tuple())
	if !ok {
		return -1
	}
	return port
}

// FlightRecorder is the facade over internal/flightrec: a passive,
// bounded-memory ring of typed simulation events (queue transitions,
// PFC pauses, drops, ECN marks, CNPs, rate updates) attached to a
// network's hook surface. Recording never changes the run: an attached
// network's event digest is bit-identical to a bare one.
type FlightRecorder struct {
	inner *flightrec.Recorder
}

// AttachFlightRecorder arms a flight recorder on this network. Attach
// before running; query or export after.
func (n *Network) AttachFlightRecorder() *FlightRecorder {
	return &FlightRecorder{inner: flightrec.Attach(n.net, flightrec.Config{})}
}

// EventsRecorded returns how many events the run produced.
func (r *FlightRecorder) EventsRecorded() int { return r.inner.EventsRecorded() }

// WriteEventsCSV emits every retained event as CSV.
func (r *FlightRecorder) WriteEventsCSV(w io.Writer) error { return r.inner.WriteCSV(w) }

// WriteChromeTrace emits the retained window as Chrome trace-event
// JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
func (r *FlightRecorder) WriteChromeTrace(w io.Writer) error { return r.inner.WriteChromeTrace(w) }

// SetLossRate injects per-frame random corruption on every link — the
// non-congestion loss environment of the paper's §7.
func (n *Network) SetLossRate(p float64) { n.net.SetLossRate(p) }

// NewFatTreeNetwork builds a k-ary fat tree (k even): k³/4 hosts named
// P<pod>E<edge>H<n>, for scale studies beyond the paper's testbed.
func NewFatTreeNetwork(seed int64, k int, opts Options) *Network {
	return &Network{net: topology.NewFatTree(seed, k, opts.inner)}
}
