// Package nic models the host RDMA NIC: the device that implements most
// of DCQCN. A NIC owns one port into the fabric and, per flow,
//
//   - a sender queue pair with a hardware-style rate limiter paced by a
//     congestion controller from the internal/cc registry (DCQCN's RP by
//     default; fixed-rate for the PFC-only baseline, TIMELY, QCN and the
//     other registered algorithms by selection). The NIC subscribes the
//     controller to the signals it has reactors for and re-arms the
//     pacer through its rate listener;
//   - a receiver queue pair plus DCQCN's NP state machine generating CNPs
//     from CE-marked arrivals, built on the destination NIC when the flow
//     opens and deleted when it closes;
//   - reaction to PFC PAUSE from the top-of-rack switch (handled by the
//     shared port machinery in internal/link).
//
// Flows start at line rate — DCQCN's "hyper-fast start" — and the rate
// limiter engages only when the controller reduces the rate.
package nic

import (
	"fmt"
	"math"

	"dcqcn/internal/cc"
	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/eventq"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

// Clock adapts the simulation engine to core.Clock and core.Scheduler.
type Clock struct{ Sim *engine.Sim }

// Now returns the current simulated time.
func (c Clock) Now() simtime.Time { return c.Sim.Now() }

// After schedules fn once, d from now. The returned cancel is safe to
// call at any later time: the generation-checked handle makes it a no-op
// once the timer fired, even after its event header was reused.
func (c Clock) After(d simtime.Duration, fn func()) func() {
	h := c.Sim.After(d, fn)
	return func() { c.Sim.Cancel(h) }
}

// Rearm runs fn once, d from now, superseding the event behind h.
func (c Clock) Rearm(h eventq.Handle, d simtime.Duration, fn func()) eventq.Handle {
	return c.Sim.Rearm(h, c.Sim.Now().Add(d), fn)
}

// Cancel removes the event behind h; a stale handle is a no-op.
func (c Clock) Cancel(h eventq.Handle) { c.Sim.Cancel(h) }

// ControllerFactory builds the congestion controller for a new flow;
// cc.Selection.Factory provides one for every registered algorithm.
type ControllerFactory func(clock core.Clock) cc.Controller

// FixedRateFactory returns a factory producing uncontrolled senders (the
// PFC-only baseline).
func FixedRateFactory(rate simtime.Rate) ControllerFactory { return cc.Fixed(rate).Factory() }

// Config assembles a NIC personality.
type Config struct {
	// LineRate is the port speed.
	LineRate simtime.Rate
	// Transport configures the RoCEv2 queue pairs.
	Transport rocev2.Config
	// Controller builds the per-flow congestion controller.
	Controller ControllerFactory
	// NP configures CNP generation (CNPInterval). NPEnabled false models
	// a receiver with congestion feedback switched off entirely.
	NP        core.Params
	NPEnabled bool
	// CNPPriority is the traffic class CNPs are sent on. The paper sends
	// CNPs with high priority; an ablation uses the data class.
	CNPPriority uint8
	// CNPPacing, if positive, is the minimum spacing between CNPs across
	// all flows of this NIC, modelling the ConnectX-3 firmware limit of
	// one CNP per 1-5 µs (§3.3).
	CNPPacing simtime.Duration
	// TxBacklogLimit is the NIC-internal egress backlog (bytes) beyond
	// which pacing stalls until the port drains, modelling the NIC's
	// bounded transmit pipeline shared by all queue pairs.
	TxBacklogLimit int64
	// RxProcessingRate bounds how fast the NIC's receive pipeline drains
	// arriving data (DMA + PCIe). Zero means "at least line rate": the
	// receive path never backlogs. When positive and slower than the
	// port, arriving packets queue in the NIC receive buffer and — like
	// a switch ingress queue — trigger PFC toward the ToR (§2.2: "the
	// switches AND NICs track ingress queues").
	RxProcessingRate simtime.Rate
	// RxPFCThreshold is the receive-buffer depth (bytes) at which the
	// NIC sends XOFF upstream; RESUME follows two MTUs below it.
	RxPFCThreshold int64
}

// DefaultConfig returns a 40 Gb/s DCQCN NIC per the paper's deployment
// parameters.
func DefaultConfig() Config {
	params := core.DefaultParams()
	return Config{
		LineRate:       40 * simtime.Gbps,
		Transport:      rocev2.DefaultConfig(),
		Controller:     cc.DCQCN(params).Factory(),
		NP:             params,
		NPEnabled:      true,
		CNPPacing:      simtime.Microsecond,
		CNPPriority:    packet.PrioControl,
		TxBacklogLimit: 4 * packet.MaxFrameBytes,
		RxPFCThreshold: 64 * 1000, // ~41 MTU packets of receive buffer
	}
}

// Stats counts NIC-level activity.
type Stats struct {
	CNPsSent     int64
	CNPsReceived int64
	DataReceived int64
	// StaleData counts the data frames, of DataReceived, whose flow had
	// no receive half here: it was closed while they were in flight.
	// They are dropped unacknowledged.
	StaleData int64
	BytesOut  int64
	RxPauses  int64 // XOFF frames this NIC sent toward its ToR
}

// Directory finds the NICs of one network by node ID. Every NIC of a
// network is built with the network's Directory, and OpenFlow reaches
// the destination NIC through it to build the flow's receive half. It
// belongs to the network rather than the package because sweep workers
// build networks in parallel.
type Directory struct {
	nics map[packet.NodeID]*NIC
}

// NewDirectory returns an empty directory for one network's NICs.
func NewDirectory() *Directory {
	return &Directory{nics: make(map[packet.NodeID]*NIC)}
}

// NIC is one host adapter.
type NIC struct {
	Name string
	ID   packet.NodeID

	sim  *engine.Sim
	cfg  Config
	port *link.Port
	dir  *Directory
	// pool is the free list of every packet this NIC builds: its
	// senders' data, its receivers' ACKs and NAKs, and its CNPs. Each
	// returns here at its last use, wherever in the fabric that is.
	pool packet.Pool

	// senders holds the send half of every open flow this NIC is the
	// source of, receivers the receive half of every open flow it is
	// the destination of; Flow.Close deletes both.
	senders   map[packet.FlowID]*flowState
	receivers map[packet.FlowID]*recvState
	nextPort  uint16
	nextFlow  int32

	lastCNPAt  simtime.Time
	cnpQueue   packet.Queue
	cnpDrainer eventq.Handle // pending CNP pacing event
	// drain is drainCNPs bound once at construction, so scheduling the
	// CNP pacer does not allocate a method-value closure per CNP.
	drain func()

	rxQueue packet.Queue
	// Accounting: bytes queued in the receive pipeline awaiting processing
	rxBacklog int64
	// rxPkt is the packet the receive pipeline is processing, nil when
	// idle; held here, as link.Port holds txPkt, so its completion needs
	// no per-packet closure.
	rxPkt     *packet.Packet
	rxPausing bool
	// rxDone and rxRefresh are finishRx and sendRxPause, bound once in
	// New. rxRefreshing is the one pending XOFF refresh.
	rxDone       func()
	rxRefresh    func()
	rxRefreshing eventq.Handle

	// stalled holds flows blocked on the NIC tx backlog, in stall order,
	// so unstalling is deterministic (map iteration would not be).
	stalled []*flowState

	// OnCNPEmit, if set, observes every CNP this NIC sends as a receiver,
	// at the moment it enters the port. Strictly passive, same contract
	// as link.Port.OnRx: observers must not schedule events, draw
	// randomness, or mutate the packet, and must not keep the pointer
	// after returning (the CNP returns to the NIC's pool once consumed).
	OnCNPEmit func(p *packet.Packet)
	// OnRateUpdate, if set, observes every rate change a flow's DCQCN
	// controller applies (cut or recovery). Strictly passive, same
	// contract as OnCNPEmit.
	OnRateUpdate func(flow packet.FlowID, rate simtime.Rate)

	Stats Stats
}

// flowState is the NIC-side pacing state of one sender QP.
type flowState struct {
	qp   *rocev2.Sender
	ctrl cc.Controller

	// Typed signal subscriptions, resolved once at OpenFlow from the
	// reactor interfaces the controller implements, so the per-packet
	// receive path pays a nil check — not an interface type assertion —
	// per unconsumed signal.
	rtt  cc.RTTReactor
	qcn  cc.QCNReactor
	ack  cc.AckReactor
	hint cc.HintReactor
	// lastEchoedSentAt is the newest send stamp an ACK has echoed back.
	// Under go-back-N, duplicate-PSN re-ACKs echo an older (or zero)
	// stamp; only a strictly newer echo yields a valid RTT sample.
	lastEchoedSentAt simtime.Time

	nextSendAt    simtime.Time // earliest start of the next transmission
	lastSendAt    simtime.Time
	lastSentBytes int
	// gapRate, gapSize and gap memoize the pacing gap: gap is
	// rate.TxTime(gapSize) for the rate whose float64 bits are gapRate.
	// The rate moves only at a controller update, so between updates
	// every packet of one size reuses it.
	gapRate uint64
	gapSize int
	gap     simtime.Duration
	event   eventq.Handle // pending pacing event
	// pace is the pacing continuation, bound once at OpenFlow, so a
	// rate-limited packet schedules its send without a closure.
	pace    func()
	stalled bool // blocked on NIC tx backlog
	closed  bool // torn down; never send again
}

// recvState is the NIC-side state of one receiver QP.
type recvState struct {
	qp *rocev2.Receiver
	np *core.NP
}

// New creates a NIC and enters it in dir, the directory of its
// network's NICs. The caller wires nic.Port() to a switch port.
func New(sim *engine.Sim, id packet.NodeID, name string, cfg Config, dir *Directory) *NIC {
	if cfg.Controller == nil {
		panic("nic: Controller factory is required")
	}
	if dir == nil {
		panic("nic: Directory is required")
	}
	if _, dup := dir.nics[id]; dup {
		panic(fmt.Sprintf("nic %s: node %d already has a NIC", name, id))
	}
	if err := cfg.Transport.Validate(); err != nil {
		panic(fmt.Sprintf("nic %s: %v", name, err))
	}
	n := &NIC{
		Name:      name,
		ID:        id,
		sim:       sim,
		cfg:       cfg,
		dir:       dir,
		senders:   make(map[packet.FlowID]*flowState),
		receivers: make(map[packet.FlowID]*recvState),
		nextPort:  1000,
	}
	n.port = link.NewPort(sim, name, 0, cfg.LineRate, n)
	n.port.OnDeparture = n.onDeparture
	n.drain = n.drainCNPs
	n.rxDone = n.finishRx
	n.rxRefresh = n.sendRxPause
	dir.nics[id] = n
	return n
}

// Port returns the NIC's fabric port for wiring.
func (n *NIC) Port() *link.Port { return n.port }

// RxBacklog returns the bytes queued in the receive pipeline awaiting
// processing; the invariant auditor checks it never goes negative.
func (n *NIC) RxBacklog() int64 { return n.rxBacklog }

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Flow is the application handle to one open QP.
type Flow struct {
	nic  *NIC // the source, holding the send half
	peer *NIC // the destination, holding the receive half
	fs   *flowState
}

// A FlowID packs the opening NIC's node ID above a per-NIC flow
// counter of flowBits bits, leaving the sign bit clear.
const (
	flowBits  = 16
	maxFlows  = 1 << flowBits
	maxNodeID = 1<<(31-flowBits) - 1
)

// OpenFlow creates a flow toward dst: the sender QP plus controller
// here, and the receiver QP plus NP on dst's NIC, as an RC connection
// is established before its first packet. Each flow gets a distinct
// UDP source port, which is what lets ECMP spread flows across paths.
// It panics if dst has no NIC in this NIC's directory.
func (n *NIC) OpenFlow(dst packet.NodeID) *Flow {
	peer, ok := n.dir.nics[dst]
	if !ok {
		panic(fmt.Sprintf("nic %s: OpenFlow to node %d, which has no NIC", n.Name, dst))
	}
	id := n.newFlowID()
	tuple := packet.FiveTuple{
		Src: n.ID, Dst: dst,
		SrcPort: n.nextPort, DstPort: 4791, Proto: 17,
	}
	n.nextPort++
	clock := Clock{Sim: n.sim}
	ctrl := n.cfg.Controller(clock)
	fs := &flowState{
		qp:   rocev2.NewSender(id, tuple, n.cfg.Transport, clock, ctrl),
		ctrl: ctrl,
	}
	fs.qp.SetPool(&n.pool)
	// Subscribe the flow to exactly the reactors its controller
	// implements; a signal it has no reactor for stays nil.
	fs.rtt, _ = ctrl.(cc.RTTReactor)
	fs.qcn, _ = ctrl.(cc.QCNReactor)
	fs.ack, _ = ctrl.(cc.AckReactor)
	fs.hint, _ = ctrl.(cc.HintReactor)
	ctrl.SetRateListener(func(r simtime.Rate) {
		n.onRateChange(fs)
		if n.OnRateUpdate != nil {
			n.OnRateUpdate(id, r)
		}
	})
	fs.pace = func() { n.trySend(fs) }
	fs.qp.SetWakeFunc(fs.pace)
	n.senders[id] = fs
	peer.receivers[id] = peer.newReceiver(id, tuple)
	return &Flow{nic: n, peer: peer, fs: fs}
}

// newFlowID numbers the NIC's next flow. It panics rather than wrap: a
// wrapped ID would alias another flow's, and Close, which deletes
// receive state by FlowID, would tear down the wrong flow's.
func (n *NIC) newFlowID() packet.FlowID {
	if n.ID < 0 || n.ID > maxNodeID {
		panic(fmt.Sprintf("nic %s: node ID %d does not fit a FlowID (0..%d)", n.Name, n.ID, maxNodeID))
	}
	if n.nextFlow >= maxFlows {
		panic(fmt.Sprintf("nic %s: out of FlowIDs: a NIC numbers at most %d flows", n.Name, maxFlows))
	}
	id := packet.FlowID(int32(n.ID)<<flowBits | n.nextFlow)
	n.nextFlow++
	return id
}

// newReceiver builds the receive half of a flow toward this NIC.
func (n *NIC) newReceiver(flow packet.FlowID, tuple packet.FiveTuple) *recvState {
	rs := &recvState{}
	rs.qp = rocev2.NewReceiver(flow, tuple, n.cfg.Transport, func(ctrl *packet.Packet) {
		n.port.Enqueue(ctrl)
	})
	rs.qp.SetPool(&n.pool)
	if n.cfg.NPEnabled {
		rs.np = core.NewNP(n.cfg.NP, Clock{Sim: n.sim}, func() {
			n.emitCNP(flow, tuple)
		})
	}
	return rs
}

// PostMessage queues one application message on the flow.
func (f *Flow) PostMessage(size int64, onComplete func(rocev2.Completion)) {
	f.fs.qp.PostMessage(size, onComplete)
}

// ID returns the flow identifier.
func (f *Flow) ID() packet.FlowID { return f.fs.qp.Flow }

// Stats returns the sender transport counters.
func (f *Flow) Stats() rocev2.SenderStats { return f.fs.qp.Stats }

// Controller returns the flow's congestion controller; cc.Unwrap reaches
// the state machine behind it (e.g. to inspect the DCQCN RP state).
func (f *Flow) Controller() cc.Controller { return f.fs.ctrl }

// CurrentRate returns the rate the flow is being paced at right now.
func (f *Flow) CurrentRate() simtime.Rate { return f.fs.ctrl.Rate() }

// Close tears the flow down at both ends: it stops and deletes the send
// half and deletes the receive half. Data still in flight is dropped
// at the destination (Stats.StaleData). The NP is not stopped: a CNP
// window it already opened runs out as it would have, sending its CNP
// if it saw a mark, so closing a flow whose data is all acknowledged
// moves no event.
func (f *Flow) Close() {
	f.fs.closed = true
	f.fs.qp.Stop()
	f.nic.sim.Cancel(f.fs.event)
	delete(f.nic.senders, f.ID())
	delete(f.peer.receivers, f.ID())
}

// trySend is the pacing engine: it transmits the flow's next packet when
// the rate limiter, the transport window and the NIC backlog all allow.
func (n *NIC) trySend(fs *flowState) {
	if fs.closed {
		return
	}
	if fs.event.Pending() {
		return // a pacing event is already scheduled
	}
	for {
		if !fs.qp.CanSend() {
			return // window closed or no data; wake() re-enters
		}
		if n.port.TotalQueuedBytes() >= n.cfg.TxBacklogLimit {
			if !fs.stalled {
				fs.stalled = true // departure re-enters, in FIFO order
				n.stalled = append(n.stalled, fs)
			}
			return
		}
		now := n.sim.Now()
		if now < fs.nextSendAt {
			fs.event = n.sim.At(fs.nextSendAt, fs.pace)
			return
		}
		pkt := fs.qp.BuildNext()
		n.port.Enqueue(pkt)
		n.Stats.BytesOut += int64(pkt.Size)
		fs.lastSendAt = now
		fs.lastSentBytes = pkt.Size
		rate := fs.ctrl.Rate()
		if rate <= 0 {
			rate = n.cfg.LineRate
		}
		fs.nextSendAt = now.Add(fs.pacingGap(rate, pkt.Size))
	}
}

// pacingGap returns rate.TxTime(size), which the flow's memo holds
// unless the rate's bits or the size differ from the last call's. The
// rate must be positive; the zero memo is then never a hit.
func (fs *flowState) pacingGap(rate simtime.Rate, size int) simtime.Duration {
	if bits := math.Float64bits(float64(rate)); bits != fs.gapRate || size != fs.gapSize {
		fs.gapRate, fs.gapSize, fs.gap = bits, size, rate.TxTime(size)
	}
	return fs.gap
}

// onRateChange re-arms the pacing gap after the controller moved the
// rate: the spacing after the last packet becomes size/newRate, so cuts
// take effect immediately and recoveries are not stuck behind a stale
// low-rate gap.
func (n *NIC) onRateChange(fs *flowState) {
	if fs.lastSentBytes == 0 {
		return
	}
	rate := fs.ctrl.Rate()
	if rate <= 0 {
		return
	}
	fs.nextSendAt = fs.lastSendAt.Add(fs.pacingGap(rate, fs.lastSentBytes))
	// Where cancelling and retrying would go straight to scheduling the
	// next send at nextSendAt, the pending pacing event is re-armed there
	// in place instead; the event and its order are the same.
	if fs.event.Pending() && n.sim.Now() < fs.nextSendAt && fs.qp.CanSend() &&
		n.port.TotalQueuedBytes() < n.cfg.TxBacklogLimit {
		fs.event = n.sim.Rearm(fs.event, fs.nextSendAt, fs.pace)
		return
	}
	n.sim.Cancel(fs.event)
	n.trySend(fs)
}

// onDeparture runs when a packet's last bit leaves the NIC port: it feeds
// the byte counter of the flow's controller and unstalls backlogged flows.
func (n *NIC) onDeparture(p *packet.Packet) {
	if p.Type == packet.Data {
		if fs, ok := n.senders[p.Flow]; ok {
			fs.ctrl.OnBytesSent(int64(p.Size))
		}
	}
	for len(n.stalled) > 0 && n.port.TotalQueuedBytes() < n.cfg.TxBacklogLimit {
		fs := popFront(&n.stalled)
		fs.stalled = false
		n.trySend(fs)
	}
}

// SetRxProcessingRate changes the receive-pipeline drain rate at run
// time — the slow-receiver fault of the chaos suite (a host whose DMA
// or PCIe path degrades mid-run, driving sustained PFC). Zero restores
// an unconstrained pipeline; packets already queued still drain first,
// in order, so the transition never reorders delivery.
func (n *NIC) SetRxProcessingRate(r simtime.Rate) {
	if r < 0 {
		panic(fmt.Sprintf("nic %s: negative rx processing rate", n.Name))
	}
	n.cfg.RxProcessingRate = r
	n.rxKick()
}

// DataPriority returns the PFC class this NIC's data rides on (exposed
// for fault targeting: a pause storm asserts XOFF on this class).
func (n *NIC) DataPriority() uint8 { return n.dataPriority() }

// HandlePacket implements link.Receiver. With an unconstrained receive
// pipeline packets are consumed immediately; with RxProcessingRate set,
// they pass through the bounded receive buffer first, generating PFC
// toward the ToR when it backlogs. Packets also take the queued path
// while earlier arrivals are still draining (a just-cleared slow-receiver
// fault), preserving delivery order across the rate change.
func (n *NIC) HandlePacket(p *packet.Packet, _ *link.Port) {
	if n.cfg.RxProcessingRate > 0 || n.rxPkt != nil || !n.rxQueue.Empty() {
		n.rxEnqueue(p)
		return
	}
	n.consume(p)
}

// rxEnqueue models the finite-rate receive pipeline.
func (n *NIC) rxEnqueue(p *packet.Packet) {
	n.rxQueue.Push(p)
	n.rxBacklog += int64(p.Size)
	if !n.rxPausing && n.cfg.RxPFCThreshold > 0 && n.rxBacklog > n.cfg.RxPFCThreshold {
		n.rxPausing = true
		n.sendRxPause()
	}
	n.rxKick()
}

func (n *NIC) sendRxPause() {
	if !n.rxPausing {
		return
	}
	n.Stats.RxPauses++
	n.port.SendPFC(n.dataPriority(), true)
	// As a switch does: the next refresh supersedes a pending one.
	n.rxRefreshing = n.sim.Rearm(n.rxRefreshing, n.sim.Now().Add(link.DefaultPauseDuration/2), n.rxRefresh)
}

func (n *NIC) rxKick() {
	if n.rxPkt != nil || n.rxQueue.Empty() {
		return
	}
	p := n.rxQueue.Pop()
	n.rxPkt = p
	// Rate zero means the pipeline constraint was lifted mid-run: drain
	// the residue with zero-delay events to keep ordering.
	var drain simtime.Duration
	if n.cfg.RxProcessingRate > 0 {
		drain = n.cfg.RxProcessingRate.TxTime(p.Size)
	}
	n.sim.After(drain, n.rxDone)
}

// finishRx completes the processing of rxPkt: the pipeline releases its
// bytes, resumes the ToR if the backlog drained, and consumes the packet.
func (n *NIC) finishRx() {
	p := n.rxPkt
	n.rxPkt = nil
	n.rxBacklog -= int64(p.Size)
	if n.rxPausing && n.rxBacklog <= max(n.cfg.RxPFCThreshold-2*packet.MaxFrameBytes, 0) {
		n.rxPausing = false
		n.port.SendPFC(n.dataPriority(), false)
	}
	n.consume(p)
	n.rxKick()
}

// consume dispatches a fully received packet to the protocol machinery,
// then releases it: this is its last use, on the direct path and the
// pipeline path alike.
func (n *NIC) consume(p *packet.Packet) {
	switch p.Type {
	case packet.Data:
		n.Stats.DataReceived++
		rs, ok := n.receivers[p.Flow]
		if !ok {
			n.Stats.StaleData++ // its flow closed while it was in flight
			break
		}
		if rs.np != nil {
			rs.np.OnPacket(p.CE)
		}
		rs.qp.OnData(p)
	case packet.Ack:
		if fs, ok := n.senders[p.Flow]; ok {
			if fs.rtt != nil && p.SentAt > fs.lastEchoedSentAt {
				// Karn-style filter for go-back-N: after a retransmission
				// the receiver keeps re-ACKing duplicate PSNs, echoing a
				// stale (or never-set, zero) send stamp; only a strictly
				// newer echo is a sample of the current network.
				fs.lastEchoedSentAt = p.SentAt
				if rtt := n.sim.Now().Sub(p.SentAt); rtt > 0 {
					fs.rtt.OnRTT(rtt)
				}
			}
			if fs.ack != nil && p.AckCount > 0 {
				fs.ack.OnAck(cc.AckSample{
					Packets:      int(p.AckCount),
					Marked:       int(p.AckMarked),
					PayloadBytes: p.AckPayload,
				})
			}
			fs.qp.OnAck(p.PSN)
		}
	case packet.Nack:
		if fs, ok := n.senders[p.Flow]; ok {
			fs.qp.OnNack(p.PSN)
		}
	case packet.CNP:
		n.Stats.CNPsReceived++
		if fs, ok := n.senders[p.Flow]; ok {
			fs.ctrl.OnCNP()
		}
	case packet.QCNFb:
		if fs, ok := n.senders[p.Flow]; ok && fs.qcn != nil {
			fs.qcn.OnQCNFeedback(p.QCNFeedback())
		}
	case packet.Hint:
		if fs, ok := n.senders[p.Flow]; ok && fs.hint != nil {
			fs.hint.OnSwitchHint(cc.SwitchHint{QueueBytes: p.HintQueueBytes()})
		}
	default:
		// PFC frames are consumed by the port; anything else is a bug.
		panic(fmt.Sprintf("nic %s: unexpected packet %v", n.Name, p))
	}
	p.Release()
}

// dataPriority returns the PFC class this NIC's data rides on.
func (n *NIC) dataPriority() uint8 {
	if n.cfg.Transport.Priority != 0 {
		return n.cfg.Transport.Priority
	}
	return packet.PrioData
}

// emitCNP sends one CNP toward the flow's sender, respecting the NIC-wide
// CNP generation pacing if configured.
func (n *NIC) emitCNP(flow packet.FlowID, tuple packet.FiveTuple) {
	cnp := n.pool.NewCNP(flow, tuple)
	cnp.Priority = n.cfg.CNPPriority
	if n.cfg.CNPPacing <= 0 {
		n.sendCNP(cnp)
		return
	}
	n.cnpQueue.Push(cnp)
	n.drainCNPs()
}

func (n *NIC) drainCNPs() {
	if n.cnpDrainer.Pending() {
		return
	}
	for !n.cnpQueue.Empty() {
		now := n.sim.Now()
		ready := n.lastCNPAt.Add(n.cfg.CNPPacing)
		if n.lastCNPAt == 0 && n.Stats.CNPsSent == 0 {
			ready = now
		}
		if now < ready {
			n.cnpDrainer = n.sim.At(ready, n.drain)
			return
		}
		n.sendCNP(n.cnpQueue.Pop())
	}
}

func (n *NIC) sendCNP(cnp *packet.Packet) {
	n.Stats.CNPsSent++
	n.lastCNPAt = n.sim.Now()
	if n.OnCNPEmit != nil {
		n.OnCNPEmit(cnp)
	}
	n.port.Enqueue(cnp)
}

// popFront removes and returns the head of a short FIFO kept in a slice.
// It shifts the rest down instead of reslicing past the head, which
// would shrink the capacity until every append reallocates: the stall
// list refills constantly under PFC and marking.
func popFront[T any](q *[]T) T {
	s := *q
	head := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	*q = s[:n]
	return head
}

// ReceiverStats returns the transport counters of the receive half of a
// flow toward this NIC, if the flow is open.
func (n *NIC) ReceiverStats(f packet.FlowID) (rocev2.ReceiverStats, bool) {
	rs, ok := n.receivers[f]
	if !ok {
		return rocev2.ReceiverStats{}, false
	}
	return rs.qp.Stats, true
}

// NPStats returns the NP counters of the receive half of a flow toward
// this NIC, if the flow is open and the NIC runs an NP.
func (n *NIC) NPStats(f packet.FlowID) (cnpsSent, marked int64, ok bool) {
	rs, found := n.receivers[f]
	if !found || rs.np == nil {
		return 0, 0, false
	}
	return rs.np.CNPsSent, rs.np.MarkedPackets, true
}

// Tuple returns the flow's five-tuple (useful for ECMP placement checks
// in experiments).
func (f *Flow) Tuple() packet.FiveTuple { return f.fs.qp.Tuple }
