// Package fabric implements the shared-buffer datacenter switch the DCQCN
// paper's analysis assumes: a Broadcom Trident II-style device with
//
//   - a single packet buffer shared by all ports, with per-(ingress port,
//     priority) byte accounting and reserved PFC headroom;
//   - PFC PAUSE generation with either the dynamic threshold
//     t_PFC = β(B − 8·n·t_flight − s)/8 or a fixed (misconfigurable)
//     threshold, and RESUME at threshold − 2·MTU;
//   - RED/ECN marking on egress queues per the Fig. 5 law;
//   - IP routing with per-flow ECMP (5-tuple hash, per-switch seed).
//
// Packet loss can only occur by buffer overflow, which correct PFC
// settings prevent; the Fig. 18 experiments disable or misconfigure PFC
// to show what then happens.
package fabric

import (
	"fmt"
	"math/rand"
	"slices"

	"dcqcn/internal/buffercalc"
	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/eventq"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
)

// Config selects the switch's buffer management and marking behaviour.
type Config struct {
	// Spec is the buffer geometry (size, ports, headroom inputs).
	Spec buffercalc.SwitchSpec
	// PFCEnabled turns PAUSE generation on. Off, the switch tail-drops on
	// overflow (the paper's "DCQCN without PFC" configuration).
	PFCEnabled bool
	// Beta is the dynamic PAUSE threshold sharing factor (paper: 8).
	// Ignored when StaticPFCThreshold > 0.
	Beta float64
	// StaticPFCThreshold, if positive, replaces the dynamic threshold
	// with a fixed per-ingress-queue value (the paper's "misconfigured"
	// case uses the static upper bound).
	StaticPFCThreshold int64
	// EgressAlpha is the dynamic per-egress-queue drop threshold of
	// lossy traffic classes: a queue may grow to EgressAlpha·(B − s)
	// before arriving packets tail-drop (Broadcom dynamic thresholding).
	// Lossless (PFC-protected) classes are exempt — they are bounded by
	// the ingress PAUSE thresholds instead — so the limit only acts when
	// PFCEnabled is false. Zero disables the check.
	EgressAlpha float64
	// EgressDRRQuantum, if positive, schedules the data classes of every
	// egress port with deficit round robin (that many bytes per turn)
	// instead of strict priority — how shared switches divide bandwidth
	// between traffic classes.
	EgressDRRQuantum int64
	// Marking supplies the RED/ECN profile (KMin, KMax, PMax).
	Marking core.Params
	// ECMPSeed perturbs the 5-tuple hash of this switch. Real switches
	// hash with different configurations per device; the paper's
	// unfairness results depend on how flows collide, so experiments
	// control this seed.
	ECMPSeed uint64
}

// DefaultConfig returns the paper's recommended production switch
// configuration: PFC on, β = 8, RED/ECN per Fig. 14.
func DefaultConfig() Config {
	return Config{
		Spec:        buffercalc.DefaultArista7050QX32(),
		PFCEnabled:  true,
		Beta:        8,
		EgressAlpha: 0.125,
		Marking:     core.DefaultParams(),
	}
}

// Stats aggregates switch-level counters used by the experiments.
type Stats struct {
	Forwarded   int64 // packets routed
	Drops       int64 // packets lost to buffer overflow
	PauseSent   int64 // XOFF frames emitted
	ResumeSent  int64 // XON frames emitted
	EcnMarked   int64 // packets CE-marked here
	MaxOccupied int64 // high-water mark of the shared buffer
}

// Switch is one shared-buffer switch.
type Switch struct {
	Name string
	ID   packet.NodeID

	sim *engine.Sim
	cfg Config
	// pfc is the dynamic PAUSE threshold with the spec's usable buffer
	// (B less all headroom) computed once, at New.
	pfc buffercalc.DynamicPFC
	cp  *core.CP
	// markRng drives probabilistic ECN marking. Each switch owns a
	// private stream (derived from the simulation seed and the switch
	// ID) so marking decisions depend only on the traffic this switch
	// sees, not on how events interleave across the fabric: traffic
	// elsewhere cannot shift this switch's draws. markDraw builds it at
	// the first draw: the marking law draws only when 0 < p < 1, so a
	// PFC-only run never seeds one, and seeding a math/rand source is
	// the costliest step of New.
	markRng *rand.Rand

	ports []*link.Port
	// routes holds, indexed by destination node ID, the candidate egress
	// ports (the ECMP set). Node IDs are small and dense (the topology
	// numbers nodes from 1), so AddRoute grows it to the largest ID.
	routes [][]int

	// Accounting: shared-buffer bytes currently held
	occupied int64
	// Accounting: shared-buffer bytes per (ingress port, priority)
	ingress [][packet.NumPriorities]int64
	pausing [][packet.NumPriorities]bool
	// acct tracks lifetime bytes through the shared buffer per ingress
	// port; the invariant auditor, where attached, checks admitted ==
	// departed + buffered and wireIn == admitted + dropped + PFC control
	// bytes at every departure.
	// Accounting: lifetime admitted/departed/dropped bytes per ingress port
	acct []PortAccounting

	// Sampler, if set, observes data packets at egress enqueue time and
	// may return a feedback packet (used by the QCN baseline); the switch
	// routes the feedback like any other packet. It must not keep the
	// data packet after returning (see link.Port's hook contract).
	Sampler func(p *packet.Packet, egressQueueBytes int64) *packet.Packet

	// OnDrop, if set, observes every admission-time tail drop (buffer
	// overflow or egress-alpha limit) after the drop counters update,
	// just before the packet is released. Strictly passive, same
	// contract as link.Port.OnRx: observers must not schedule events,
	// draw randomness, mutate the packet, or keep it.
	OnDrop func(p *packet.Packet, inPort int)
	// OnMark, if set, observes every CE mark this switch applies, with
	// the egress port the marked packet is heading out of. Strictly
	// passive, same contract as OnDrop.
	OnMark func(p *packet.Packet, outPort int)

	// FluidEgress and FluidOccupied couple the hybrid co-simulation's
	// fluid background traffic (internal/hybrid) into this switch's
	// decisions. FluidEgress returns the modeled background bytes
	// standing on the egress queue of (port, priority) — added to the
	// packet-level queue length the ECN marking law sees. FluidOccupied
	// returns the background bytes held in the shared buffer — added to
	// the packet-level occupancy that admission and the dynamic PFC
	// threshold see. Both are read on the forwarding hot path: they must
	// be allocation-free, deterministic, and must not touch the event
	// queue. Nil (the default) means no fluid traffic: every path below
	// then behaves bit-identically to a build without these fields.
	FluidEgress   func(port int, prio uint8) int64
	FluidOccupied func() int64

	// pauseRefresh holds the XOFF refreshes of each ingress port, one
	// per priority: a congested switch re-asserts XOFF every half pause
	// interval for as long as the queue stays above threshold (millions
	// of frames in the paper's Fig. 15 regime). A port's set is built at
	// its first XOFF; a port that never pauses its sender keeps nil.
	pauseRefresh []*[packet.NumPriorities]refresh

	Stats Stats
}

// refresh is one (ingress port, priority)'s XOFF refresh: its
// continuation, bound once so the refresh loop is allocation-free, and
// the handle of its one pending event.
type refresh struct {
	fire    func()
	pending eventq.Handle
}

// newRefreshes builds the XOFF refreshes of ingress port inPort at its
// first XOFF. It stays out of line so that the pause path's only
// allocation site is this one function.
//
//go:noinline
//hot:path
func (s *Switch) newRefreshes(inPort int) *[packet.NumPriorities]refresh {
	// Once per ingress port, at its first XOFF. Accepted in escape.golden.
	rs := &[packet.NumPriorities]refresh{}
	for prio := range rs {
		prio := uint8(prio)
		rs[prio].fire = func() { s.sendPause(inPort, prio) }
	}
	return rs
}

// New creates a switch with nPorts ports. Ports are created eagerly and
// wired to neighbours by the topology layer.
func New(sim *engine.Sim, id packet.NodeID, name string, nPorts int, cfg Config) *Switch {
	if cfg.Spec.Validate() != nil && cfg.PFCEnabled {
		panic(fmt.Sprintf("fabric: invalid switch spec for %s", name))
	}
	sw := &Switch{
		Name:    name,
		ID:      id,
		sim:     sim,
		cfg:     cfg,
		pfc:     cfg.Spec.DynamicPFC(),
		ingress: make([][packet.NumPriorities]int64, nPorts),
		pausing: make([][packet.NumPriorities]bool, nPorts),
		acct:    make([]PortAccounting, nPorts),
	}
	sw.cp = core.NewCP(cfg.Marking, sw.markDraw)
	for i := 0; i < nPorts; i++ {
		port := link.NewPort(sim, fmt.Sprintf("%s.p%d", name, i), i, cfg.Spec.LineRate, sw)
		port.OnDeparture = sw.onDeparture
		if cfg.EgressDRRQuantum > 0 {
			port.EnableDRR(cfg.EgressDRRQuantum)
		}
		sw.ports = append(sw.ports, port)
	}
	sw.pauseRefresh = make([]*[packet.NumPriorities]refresh, nPorts)
	return sw
}

// markStreamSeed derives the per-switch marking stream seed from the
// simulation seed and the switch's node ID.
func markStreamSeed(seed int64, id packet.NodeID) int64 {
	return int64(uint64(seed)*0x9E3779B97F4A7C15 ^ (uint64(id)+1)*0x887237b65895041b)
}

// markDraw is the marking law's random source: the next draw of the
// switch's marking stream, seeded by markStreamSeed at the first call.
// Nothing draws before the first probabilistic mark, so when the stream
// is built does not change which packets are marked.
func (s *Switch) markDraw() float64 {
	if s.markRng == nil {
		s.markRng = s.sim.NewStream(markStreamSeed(s.sim.Seed(), s.ID))
	}
	return s.markRng.Float64()
}

// Port returns port i for wiring by the topology layer.
func (s *Switch) Port(i int) *link.Port { return s.ports[i] }

// NumPorts returns the number of ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// AddRoute registers egress ports for a destination. Multiple ports form
// an ECMP group resolved by flow hash.
func (s *Switch) AddRoute(dst packet.NodeID, ports ...int) {
	if int(dst) >= len(s.routes) {
		s.routes = append(s.routes, make([][]int, int(dst)+1-len(s.routes))...)
	}
	s.routes[dst] = append(s.routes[dst], ports...)
}

// Routes returns a copy of the ECMP group toward dst, its ports in the
// order AddRoute registered them, or nil if the switch has no route
// there.
func (s *Switch) Routes(dst packet.NodeID) []int { return slices.Clone(s.ecmpSet(dst)) }

// ecmpSet returns the candidate egress ports toward dst, empty if the
// switch has no route there.
//
//hot:path
func (s *Switch) ecmpSet(dst packet.NodeID) []int {
	if uint(dst) < uint(len(s.routes)) {
		return s.routes[dst]
	}
	return nil
}

// Occupied returns the shared-buffer bytes currently held.
func (s *Switch) Occupied() int64 { return s.occupied }

// PortAccounting is the lifetime byte ledger of one ingress port:
// every data byte the port's wire delivered was either admitted to the
// shared buffer or dropped, and every admitted byte is eventually
// departed; AdmittedBytes − DepartedBytes is the port's share of the
// buffer right now.
type PortAccounting struct {
	AdmittedBytes int64
	DepartedBytes int64
	DroppedBytes  int64
}

// Accounting returns the lifetime byte ledger of ingress port i.
func (s *Switch) Accounting(i int) PortAccounting { return s.acct[i] }

// IngressQueue returns the bytes accounted to one ingress (port,
// priority) queue.
func (s *Switch) IngressQueue(port int, prio uint8) int64 {
	return s.ingress[port][prio]
}

// EgressQueue returns the bytes waiting on the egress FIFO of (port,
// priority) — the quantity the Fig. 19 queue-length experiment samples.
func (s *Switch) EgressQueue(port int, prio uint8) int64 {
	return s.ports[port].QueuedBytes(prio)
}

// SetBeta replaces the dynamic PFC threshold sharing factor at run time
// — the switch-misconfiguration fault of the chaos suite (an operator
// or agent pushing a wrong β to one device of a fleet, §4's "thresholds
// must be set correctly" made concrete). Takes effect on the next
// ingress-queue evaluation.
func (s *Switch) SetBeta(beta float64) {
	if beta <= 0 {
		panic(fmt.Sprintf("fabric: non-positive beta on %s", s.Name))
	}
	s.cfg.Beta = beta
}

// SetStaticPFCThreshold replaces (positive) or clears (zero) the static
// PAUSE threshold at run time, overriding the dynamic formula.
func (s *Switch) SetStaticPFCThreshold(t int64) {
	if t < 0 {
		panic(fmt.Sprintf("fabric: negative static PFC threshold on %s", s.Name))
	}
	s.cfg.StaticPFCThreshold = t
}

// SetMarking replaces the RED/ECN profile at run time (misconfiguration
// skew: one switch marking at the wrong thresholds). The new profile
// keeps drawing from the switch's own marking stream where the old one
// left off, so determinism is unaffected.
func (s *Switch) SetMarking(p core.Params) {
	s.cfg.Marking = p
	s.cp = core.NewCP(p, s.markDraw)
}

// effOccupied returns the shared-buffer occupancy every buffer-space
// decision (admission, PFC thresholds, egress-alpha headroom) works
// from: the packet bytes actually held plus, when the hybrid substrate
// is attached, the bytes its fluid background traffic models as
// standing in this switch.
//
//hot:path
func (s *Switch) effOccupied() int64 {
	if s.FluidOccupied != nil {
		return s.occupied + s.FluidOccupied()
	}
	return s.occupied
}

// effEgressQueue returns the egress queue length the marking law and
// egress-alpha check see on (port, prio): packet bytes waiting plus the
// fluid background share of the port.
//
//hot:path
func (s *Switch) effEgressQueue(port int, prio uint8) int64 {
	q := s.ports[port].QueuedBytes(prio)
	if s.FluidEgress != nil {
		q += s.FluidEgress(port, prio)
	}
	return q
}

// pfcThreshold returns the XOFF threshold in force right now.
//
//hot:path
func (s *Switch) pfcThreshold() int64 {
	if s.cfg.StaticPFCThreshold > 0 {
		return s.cfg.StaticPFCThreshold
	}
	return s.pfc.Threshold(s.cfg.Beta, s.effOccupied())
}

// HandlePacket implements link.Receiver: the switch forwarding pipeline.
//
//hot:path
func (s *Switch) HandlePacket(p *packet.Packet, in *link.Port) {
	// Admission: the shared buffer is finite, and without PFC each
	// egress queue is additionally bounded by the dynamic threshold
	// EgressAlpha·(B − s). With PFC configured correctly neither check
	// can trigger; without it, this is the tail drop the paper's Fig. 18
	// demonstrates.
	if s.effOccupied()+int64(p.Size) > s.cfg.Spec.BufferBytes {
		s.Stats.Drops++
		in.Stats.Drops++
		s.acct[in.Index].DroppedBytes += int64(p.Size)
		if s.OnDrop != nil {
			s.OnDrop(p, in.Index)
		}
		p.Release()
		return
	}
	if !s.cfg.PFCEnabled && s.cfg.EgressAlpha > 0 {
		if out, ok := s.RouteChoice(p.Tuple); ok {
			limit := int64(s.cfg.EgressAlpha * float64(s.cfg.Spec.BufferBytes-s.effOccupied()))
			if s.effEgressQueue(out, p.Priority) > limit {
				s.Stats.Drops++
				in.Stats.Drops++
				s.acct[in.Index].DroppedBytes += int64(p.Size)
				if s.OnDrop != nil {
					s.OnDrop(p, in.Index)
				}
				p.Release()
				return
			}
		}
	}
	s.occupied += int64(p.Size)
	if s.occupied > s.Stats.MaxOccupied {
		s.Stats.MaxOccupied = s.occupied
	}
	s.ingress[in.Index][p.Priority] += int64(p.Size)
	s.acct[in.Index].AdmittedBytes += int64(p.Size)
	p.InPort = int32(in.Index)

	if s.cfg.PFCEnabled {
		s.checkPause(in.Index, p.Priority)
	}
	s.forward(p)
}

// forward routes p out the port its ECMP hash selects.
//
//hot:path
func (s *Switch) forward(p *packet.Packet) {
	outs := s.ecmpSet(p.Tuple.Dst)
	if len(outs) == 0 {
		panic(fmt.Sprintf("fabric: %s has no route to node %d", s.Name, p.Tuple.Dst))
	}
	out := outs[0]
	if len(outs) > 1 {
		out = outs[p.Tuple.Hash(s.cfg.ECMPSeed)%uint64(len(outs))]
	}
	port := s.ports[out]

	qlen := s.effEgressQueue(out, p.Priority)
	if p.ECNCapable && s.cp.ShouldMark(qlen) {
		p.CE = true
		s.Stats.EcnMarked++
		if s.OnMark != nil {
			s.OnMark(p, out)
		}
	}
	if s.Sampler != nil && p.Type == packet.Data {
		if fb := s.Sampler(p, qlen); fb != nil {
			fb.InPort = -1 // switch-originated: no buffer accounting
			s.forward(fb)
		}
	}
	s.Stats.Forwarded++
	port.Enqueue(p)
}

// onDeparture releases buffer accounting when a packet's last bit leaves
// the switch, and sends RESUME when the ingress queue drains enough.
// Frames the switch originated itself (PFC, QCN feedback) were never
// admitted into the shared buffer and carry no ingress accounting.
//
//hot:path
func (s *Switch) onDeparture(p *packet.Packet) {
	if p.IsControl() || p.InPort < 0 {
		return
	}
	s.occupied -= int64(p.Size)
	inPort := int(p.InPort)
	s.ingress[inPort][p.Priority] -= int64(p.Size)
	s.acct[inPort].DepartedBytes += int64(p.Size)
	if s.cfg.PFCEnabled && s.pausing[inPort][p.Priority] {
		resumeAt := s.pfcThreshold() - 2*s.cfg.Spec.MTUBytes
		if s.ingress[inPort][p.Priority] <= max(resumeAt, 0) {
			s.pausing[inPort][p.Priority] = false
			s.Stats.ResumeSent++
			s.ports[inPort].SendPFC(p.Priority, false)
		}
	}
}

// checkPause sends XOFF upstream if an ingress queue crossed the PFC
// threshold, then keeps refreshing it until the queue drains (PFC pause
// times expire, so a congested switch re-asserts XOFF periodically —
// this is why the paper's Fig. 15 counts millions of PAUSE frames).
//
//hot:path
func (s *Switch) checkPause(inPort int, prio uint8) {
	if s.pausing[inPort][prio] {
		return
	}
	if s.ingress[inPort][prio] <= s.pfcThreshold() {
		return
	}
	s.pausing[inPort][prio] = true
	s.sendPause(inPort, prio)
}

//hot:path
func (s *Switch) sendPause(inPort int, prio uint8) {
	if !s.pausing[inPort][prio] {
		return
	}
	s.Stats.PauseSent++
	s.ports[inPort].SendPFC(prio, true)
	// Refresh at half the pause duration while still pausing. The next
	// refresh supersedes a pending one, left by an XOFF before an XON,
	// so one stays pending, due half an interval after the last XOFF.
	rs := s.pauseRefresh[inPort]
	if rs == nil {
		rs = s.newRefreshes(inPort)
		s.pauseRefresh[inPort] = rs
	}
	r := &rs[prio]
	r.pending = s.sim.Rearm(r.pending, s.sim.Now().Add(link.DefaultPauseDuration/2), r.fire)
}

// PortStats returns the accumulated counters of port i.
func (s *Switch) PortStats(i int) link.PortStats { return s.ports[i].Stats }

// PauseReceived sums XOFF frames received across all ports — the Fig. 15
// metric when evaluated at spine switches.
func (s *Switch) PauseReceived() int64 {
	var n int64
	for _, p := range s.ports {
		n += p.Stats.PauseRx
	}
	return n
}

// PauseSentTotal sums XOFF frames sent across all ports.
func (s *Switch) PauseSentTotal() int64 { return s.Stats.PauseSent }

// RouteChoice returns the egress port the switch would pick for a packet
// with the given tuple — the ECMP decision exposed for experiments that
// need to construct or detect hash collisions (e.g. the multi-bottleneck
// parking lot of Fig. 20).
//
//hot:path
func (s *Switch) RouteChoice(tuple packet.FiveTuple) (port int, ok bool) {
	outs := s.ecmpSet(tuple.Dst)
	if len(outs) == 0 {
		return 0, false
	}
	if len(outs) == 1 {
		return outs[0], true
	}
	return outs[tuple.Hash(s.cfg.ECMPSeed)%uint64(len(outs))], true
}
