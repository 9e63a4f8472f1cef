// Package rocev2 implements the RoCEv2-like reliable transport the DCQCN
// paper's NICs run: queue pairs that segment application messages into
// MTU-sized packets with contiguous packet sequence numbers (PSNs),
// cumulative ACKs, out-of-sequence NAKs with go-back-N retransmission,
// and a retransmission timeout as the last resort.
//
// The transport assumes a lossless fabric (PFC); loss recovery exists
// because the paper's Fig. 18 deliberately removes that assumption and
// shows go-back-N collapsing under tail drop.
//
// Congestion control is pluggable through RateController, so the same
// transport runs PFC-only (fixed rate), DCQCN (core.RP), or the QCN
// baseline.
package rocev2

import (
	"fmt"

	"dcqcn/internal/core"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// RateController is the sender-side congestion control interface.
// core.RP satisfies it; FixedRate provides the PFC-only baseline.
type RateController interface {
	// Rate returns the rate the flow may currently be paced at.
	Rate() simtime.Rate
	// OnCNP processes one received congestion notification.
	OnCNP()
	// OnBytesSent informs the controller of n wire bytes transmitted.
	OnBytesSent(n int64)
	// Stop releases timers when the flow is torn down.
	Stop()
}

// FixedRate is the trivial controller: always send at line rate. It is
// the paper's "No DCQCN (PFC only)" configuration.
type FixedRate simtime.Rate

// Rate returns the fixed rate.
func (f FixedRate) Rate() simtime.Rate { return simtime.Rate(f) }

// OnCNP ignores congestion notifications.
func (f FixedRate) OnCNP() {}

// OnBytesSent ignores transmission accounting.
func (f FixedRate) OnBytesSent(int64) {}

// Stop is a no-op.
func (f FixedRate) Stop() {}

// Config holds transport-level tunables.
type Config struct {
	// MTU is the per-packet payload limit.
	MTU int
	// AckEvery generates a cumulative ACK every so many in-order packets
	// (RoCE ACK coalescing); the final packet of a message is always
	// acknowledged immediately.
	AckEvery int
	// WindowPackets caps unacknowledged packets in flight, modelling the
	// NIC's finite WQE/retransmission state. DCQCN is rate-based — there
	// is deliberately no congestion window — so the default is sized far
	// above any switch buffer (several MB): large enough that PFC-only
	// traffic can fill switch queues to the PAUSE threshold exactly as
	// the paper's uncontrolled RoCEv2 does, binding only in pathological
	// (lossy) scenarios.
	WindowPackets int
	// RTO is the retransmission timeout: if an in-flight window sees no
	// ACK progress for this long, the sender rewinds to the last
	// acknowledged PSN (go-back-N).
	RTO simtime.Duration
	// Priority is the PFC traffic class data packets are sent on
	// (default packet.PrioData). Multi-class deployments give different
	// tenants or services different lossless classes.
	Priority uint8
}

// DefaultConfig returns transport defaults for a 40 Gb/s fabric.
func DefaultConfig() Config {
	return Config{
		MTU:           packet.MTU,
		AckEvery:      16,
		WindowPackets: 4096, // ~6.4 MB: above the PFC thresholds of a 12 MB shared buffer
		RTO:           4 * simtime.Millisecond,
		Priority:      packet.PrioData,
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.MTU <= 0 || c.MTU > packet.MTU:
		return fmt.Errorf("rocev2: MTU must be in 1..%d, got %d", packet.MTU, c.MTU)
	case c.AckEvery <= 0:
		return fmt.Errorf("rocev2: AckEvery must be positive, got %d", c.AckEvery)
	case c.WindowPackets <= 0:
		return fmt.Errorf("rocev2: window must be positive, got %d", c.WindowPackets)
	case c.RTO <= 0:
		return fmt.Errorf("rocev2: RTO must be positive, got %v", c.RTO)
	case c.Priority >= packet.PrioControl:
		return fmt.Errorf("rocev2: data priority %d collides with control classes", c.Priority)
	}
	return nil
}

// message is one posted transfer and its PSN range.
type message struct {
	startPSN   int64
	numPackets int64
	size       int64
	postedAt   simtime.Time
	onComplete func(Completion)
}

// lastPSN returns the PSN of the message's final segment.
func (m *message) lastPSN() int64 { return m.startPSN + m.numPackets - 1 }

// payloadAt returns the payload length of segment psn of the message.
func (m *message) payloadAt(psn int64, mtu int) int {
	if psn < m.lastPSN() {
		return mtu
	}
	last := int(m.size - (m.numPackets-1)*int64(mtu))
	return last
}

// Completion describes one finished message transfer.
type Completion struct {
	Size     int64
	PostedAt simtime.Time
	DoneAt   simtime.Time
}

// Duration returns the flow completion time of the transfer.
func (c Completion) Duration() simtime.Duration { return c.DoneAt.Sub(c.PostedAt) }

// Throughput returns the transfer's goodput.
func (c Completion) Throughput() simtime.Rate {
	return simtime.RateFromBytes(c.Size, c.Duration())
}

// SenderStats counts sender-side transport activity.
type SenderStats struct {
	PacketsSent     int64
	BytesSent       int64 // wire bytes, including retransmissions
	PayloadAcked    int64 // goodput bytes
	Retransmits     int64 // packets sent more than once (go-back-N cost)
	RetransmitBytes int64 // wire bytes of those resends (fault-recovery cost)
	Timeouts        int64 // RTO firings
	NacksReceived   int64
	Completions     int64
}

// Sender is the send half of a queue pair.
type Sender struct {
	Flow  packet.FlowID
	Tuple packet.FiveTuple

	cfg        Config
	clock      core.Clock
	Controller RateController

	messages []*message // posted, not yet fully acked
	nextPSN  int64      // next PSN to transmit (may rewind)
	maxSent  int64      // highest PSN ever transmitted + 1
	acked    int64      // PSNs < acked are cumulatively acknowledged
	endPSN   int64      // PSN after the last posted message

	// rto is the retransmission timer, re-armed on every data packet
	// and ACK; its continuation is bound once, in NewSender.
	rto core.Timer
	// pool supplies the data packets BuildNext builds (nil: allocate).
	pool *packet.Pool
	// onWake, set by the NIC, is called when the sender transitions from
	// blocked (no data / window full) to sendable, so pacing can resume.
	onWake func()
	// stopped latches on Stop: a torn-down QP must never re-arm its RTO
	// or wake the pacer again, even if late ACKs/NAKs from the fabric
	// are still fed in.
	stopped bool

	// aud holds PSN-monotonicity audit state (see audit.go).
	aud senderAudit

	Stats SenderStats
}

// NewSender creates the send half of a QP.
func NewSender(flow packet.FlowID, tuple packet.FiveTuple, cfg Config, clock core.Clock, ctrl RateController) *Sender {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sender{Flow: flow, Tuple: tuple, cfg: cfg, clock: clock, Controller: ctrl}
	s.rto = core.NewTimer(clock, s.onRTO)
	return s
}

// SetPool makes BuildNext take its packets from pool, the free list of
// the device that sends them. Without one, each packet is a plain
// allocation.
func (s *Sender) SetPool(pool *packet.Pool) { s.pool = pool }

// SetWakeFunc registers the NIC pacing hook invoked whenever previously
// blocked data becomes sendable.
func (s *Sender) SetWakeFunc(fn func()) { s.onWake = fn }

// PostMessage queues size bytes for transmission. onComplete (optional)
// fires when the whole message is acknowledged.
func (s *Sender) PostMessage(size int64, onComplete func(Completion)) {
	if size <= 0 {
		panic("rocev2: message size must be positive")
	}
	n := (size + int64(s.cfg.MTU) - 1) / int64(s.cfg.MTU)
	m := &message{
		startPSN:   s.endPSN,
		numPackets: n,
		size:       size,
		postedAt:   s.clock.Now(),
		onComplete: onComplete,
	}
	s.messages = append(s.messages, m)
	s.endPSN += n
	s.wake()
}

// Pending reports whether unsent or unacknowledged data remains.
func (s *Sender) Pending() bool { return s.acked < s.endPSN }

// CanSend reports whether the sender has a transmittable packet: data
// remaining and window open.
func (s *Sender) CanSend() bool {
	return s.nextPSN < s.endPSN && s.nextPSN-s.acked < int64(s.cfg.WindowPackets)
}

// InFlight returns unacknowledged packets outstanding.
func (s *Sender) InFlight() int64 { return s.maxSent - s.acked }

// BuildNext constructs the next data packet and advances transport state.
// The caller (the NIC pacer) must have checked CanSend.
func (s *Sender) BuildNext() *packet.Packet {
	if !s.CanSend() {
		panic("rocev2: BuildNext without CanSend")
	}
	m := s.messageFor(s.nextPSN)
	payload := m.payloadAt(s.nextPSN, s.cfg.MTU)
	pkt := s.pool.NewData(s.Flow, s.Tuple, s.nextPSN, payload, s.nextPSN == m.lastPSN())
	if s.cfg.Priority != 0 {
		pkt.Priority = s.cfg.Priority
	}
	pkt.SentAt = s.clock.Now()
	if s.nextPSN < s.maxSent {
		s.Stats.Retransmits++
		s.Stats.RetransmitBytes += int64(pkt.Size)
	}
	s.nextPSN++
	if s.nextPSN > s.maxSent {
		s.maxSent = s.nextPSN
	}
	s.Stats.PacketsSent++
	s.Stats.BytesSent += int64(pkt.Size)
	s.armRTO()
	s.audit()
	return pkt
}

// OnAck processes a cumulative acknowledgement of all PSNs <= psn.
func (s *Sender) OnAck(psn int64) {
	if psn+1 <= s.acked {
		return // stale
	}
	wasBlocked := !s.CanSend() && s.nextPSN < s.endPSN
	s.acked = psn + 1
	if s.nextPSN < s.acked {
		s.nextPSN = s.acked
	}
	// Complete every message now fully acknowledged.
	for len(s.messages) > 0 && s.messages[0].lastPSN() < s.acked {
		m := s.messages[0]
		s.messages = s.messages[1:]
		s.Stats.PayloadAcked += m.size
		s.Stats.Completions++
		if m.onComplete != nil {
			m.onComplete(Completion{Size: m.size, PostedAt: m.postedAt, DoneAt: s.clock.Now()})
		}
	}
	if s.acked >= s.endPSN {
		s.rto.Stop()
	} else {
		s.armRTO()
	}
	if wasBlocked && s.CanSend() {
		s.wake()
	}
	s.audit()
}

// OnNack processes an out-of-sequence NAK: go-back-N from expected.
func (s *Sender) OnNack(expected int64) {
	s.Stats.NacksReceived++
	if expected < s.acked {
		return // stale
	}
	// Everything before expected is implicitly acknowledged.
	s.OnAck(expected - 1)
	wasBlocked := !s.CanSend()
	if s.nextPSN > expected {
		s.nextPSN = expected
	}
	if wasBlocked && s.CanSend() {
		s.wake()
	}
	s.audit()
}

// Stop tears the QP down, cancelling timers. After Stop, late feedback
// (ACKs, NAKs) may still be fed in but can no longer arm timers or wake
// the pacer — without this latch, an OnNack arriving after teardown
// would re-arm the RTO, and onRTO re-arms itself while data is pending,
// leaking an eternally self-rescheduling event.
func (s *Sender) Stop() {
	s.stopped = true
	s.rto.Stop()
	s.Controller.Stop()
}

func (s *Sender) wake() {
	if s.stopped {
		return
	}
	if s.onWake != nil {
		s.onWake()
	}
}

func (s *Sender) messageFor(psn int64) *message {
	for _, m := range s.messages {
		if psn >= m.startPSN && psn <= m.lastPSN() {
			return m
		}
	}
	panic(fmt.Sprintf("rocev2: PSN %d not covered by any message", psn))
}

func (s *Sender) armRTO() {
	if s.stopped {
		return
	}
	s.rto.Reset(s.cfg.RTO)
}

// onRTO rewinds to the cumulative ACK point (go-back-N) after a silent
// window — the recovery path of last resort when packets were tail-dropped.
func (s *Sender) onRTO() {
	if !s.Pending() {
		return
	}
	s.Stats.Timeouts++
	wasBlocked := !s.CanSend()
	s.nextPSN = s.acked
	s.armRTO()
	if wasBlocked && s.CanSend() {
		s.wake()
	}
	s.audit()
}

// ReceiverStats counts receive-side transport activity.
type ReceiverStats struct {
	PacketsInOrder int64
	PacketsOOO     int64 // out-of-order arrivals discarded (go-back-N)
	BytesDelivered int64
	AcksSent       int64
	NacksSent      int64
	MessagesDone   int64
}

// Receiver is the receive half of a queue pair. It delivers in-order
// payload, coalesces ACKs and emits NAKs on sequence gaps.
type Receiver struct {
	Flow  packet.FlowID
	Tuple packet.FiveTuple // the forward (sender->receiver) tuple

	cfg      Config
	send     func(*packet.Packet) // emits ACK/NAK toward the sender
	pool     *packet.Pool         // supplies ACKs and NAKs (nil: allocate)
	expected int64
	sinceAck int
	// sinceAckMarked / sinceAckPayload count CE-marked in-order packets
	// and delivered payload bytes since the last ACK; both are echoed on
	// the next ACK so ECN-fraction controllers (internal/cc) can react
	// per acknowledgement without per-packet ACKs.
	sinceAckMarked  int
	sinceAckPayload int64
	nacked          bool // a NAK for the current gap has been sent
	// lastDataSentAt is the SentAt timestamp of the most recent in-order
	// data packet, echoed on ACKs for RTT measurement.
	lastDataSentAt simtime.Time

	// aud holds PSN-monotonicity audit state (see audit.go).
	aud receiverAudit

	Stats ReceiverStats
}

// NewReceiver creates the receive half of a QP. send transmits control
// packets back to the sender.
func NewReceiver(flow packet.FlowID, tuple packet.FiveTuple, cfg Config, send func(*packet.Packet)) *Receiver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Receiver{Flow: flow, Tuple: tuple, cfg: cfg, send: send}
}

// SetPool makes the receiver take its ACKs and NAKs from pool, the free
// list of the device that sends them. Without one, each is a plain
// allocation.
func (r *Receiver) SetPool(pool *packet.Pool) { r.pool = pool }

// Expected returns the next PSN the receiver will accept.
func (r *Receiver) Expected() int64 { return r.expected }

// OnData processes an arriving data packet.
func (r *Receiver) OnData(p *packet.Packet) {
	switch {
	case p.PSN == r.expected:
		r.expected++
		r.nacked = false
		r.lastDataSentAt = p.SentAt
		r.sinceAck++
		if p.CE {
			r.sinceAckMarked++
		}
		payload := int64(p.Payload())
		r.sinceAckPayload += payload
		r.Stats.PacketsInOrder++
		r.Stats.BytesDelivered += payload
		if p.Last {
			r.Stats.MessagesDone++
		}
		if p.Last || r.sinceAck >= r.cfg.AckEvery {
			r.sendAck()
		}
	case p.PSN < r.expected:
		// Duplicate from a go-back-N rewind: re-ACK so the sender
		// advances.
		r.sendAck()
	default:
		// Gap: the fabric dropped something. NAK once per episode.
		r.Stats.PacketsOOO++
		if !r.nacked {
			r.nacked = true
			r.Stats.NacksSent++
			r.send(r.pool.NewNack(r.Flow, r.Tuple, r.expected))
		}
	}
	r.audit()
}

func (r *Receiver) sendAck() {
	r.Stats.AcksSent++
	ack := r.pool.NewAck(r.Flow, r.Tuple, r.expected-1)
	// Echo the data packet's send timestamp so the sender can measure
	// RTT (used by delay-based controllers like the TIMELY baseline).
	ack.SentAt = r.lastDataSentAt
	// Echo the ECN experience of the packets this ACK newly covers. A
	// duplicate-PSN re-ACK covers nothing new: its counts are zero.
	ack.AckCount = int32(r.sinceAck)
	ack.AckMarked = int32(r.sinceAckMarked)
	ack.AckPayload = r.sinceAckPayload
	ack.ECE = r.sinceAckMarked > 0
	r.sinceAck, r.sinceAckMarked, r.sinceAckPayload = 0, 0, 0
	r.send(ack)
}
