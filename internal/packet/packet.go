// Package packet defines the on-wire units exchanged by simulated NICs and
// switches.
//
// Packets carry metadata only: sizes are modelled, payload bytes are not,
// which is sufficient (and conventional) for congestion-control studies.
// The layering follows RoCEv2: Ethernet / IP / UDP / InfiniBand transport
// (BTH), so a Packet exposes the fields each layer of the model needs —
// addresses and ECN bits for the switches, priorities for PFC, packet
// sequence numbers for the transport.
//
// Ownership. A packet has one owner at a time — a sender, a Queue, a
// wire, a receiving device — and one last use: a NIC consumes it, a port
// acts on a PFC frame, or a switch or link drops it. At that point the
// owner calls Release, which returns the packet to the Pool of the
// device that built it (each NIC owns one for its data, ACKs, NAKs and
// CNPs; each port one for its PFC frames), so the steady-state packet
// path allocates nothing. Code that only observes a packet, through any
// device hook, must copy what it needs during the call and never keep
// the pointer: after its last use the packet is rebuilt as another one.
// Packets built without a pool (the package-level constructors, test
// literals, DCTCP, QCN and switch-assist feedback) ignore Release.
//
// Queues. Every packet FIFO of the model — a port's per-priority egress
// queues, a NIC's receive pipeline and CNP queue — is a Queue, linked
// through the packets themselves, so a packet sits in at most one queue
// at a time. Pushing a packet that is already queued panics, and so does
// releasing one.
package packet

import (
	"fmt"
	"math"

	"dcqcn/internal/simtime"
)

// Framing constants. The DCQCN paper's buffer calculations assume a
// 1500-byte MTU; RoCEv2 data packets additionally carry Ethernet, IP, UDP
// and BTH headers, which we fold into HeaderBytes.
const (
	// MTU is the maximum transport payload per packet, in bytes.
	MTU = 1500
	// HeaderBytes models Ethernet(18, incl. FCS) + IPv4(20) + UDP(8) +
	// BTH(12) + ICRC(4) framing overhead per data packet.
	HeaderBytes = 62
	// ControlBytes is the wire size of small control packets: ACK, NACK,
	// CNP and PFC frames (64-byte minimum Ethernet frame).
	ControlBytes = 64
	// MaxFrameBytes is the largest frame the fabric carries.
	MaxFrameBytes = MTU + HeaderBytes
)

// Priorities. PFC supports eight traffic classes; the paper runs RDMA data
// on one lossless class and CNPs on a separate high-priority class so that
// congestion feedback is never queued behind the data causing it.
const (
	NumPriorities = 8
	// PrioData is the lossless class RDMA traffic uses.
	PrioData = 3
	// PrioControl is the high-priority class for CNPs and ACKs.
	PrioControl = 6
)

// Type discriminates the packet kinds the simulator models.
type Type uint8

// Packet kinds.
const (
	Data   Type = iota // RoCEv2 data segment
	Ack                // transport acknowledgement
	Nack               // out-of-sequence NAK (triggers go-back-N)
	CNP                // RoCEv2 Congestion Notification Packet
	Pause              // PFC PAUSE frame (per-priority XOFF)
	Resume             // PFC frame with zero pause time (XON)
	QCNFb              // QCN congestion feedback (baseline, L2 only)
	Hint               // switch-assist occupancy hint (IP-routed, unlike QCNFb)
)

var typeNames = [...]string{"DATA", "ACK", "NACK", "CNP", "PAUSE", "RESUME", "QCNFB", "HINT"}

// String returns the conventional name of the packet type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// NodeID identifies a host or switch in the simulated network.
type NodeID int32

// FlowID identifies one transport flow (queue pair). FlowIDs are assigned
// by the simulation and are unique network-wide.
type FlowID int32

// FiveTuple is the flow identity ECMP hashes on. RoCEv2 varies the UDP
// source port per QP precisely so that ECMP can spread flows.
type FiveTuple struct {
	Src, Dst         NodeID
	SrcPort, DstPort uint16
	// Proto is constant (UDP/RoCEv2) in this model but participates in the
	// hash for fidelity.
	Proto uint8
}

// Packet is one simulated frame. Packets are passed by pointer and owned
// by exactly one queue, link or device at a time; they are never shared.
//
// Fields are ordered by alignment, widest first, so the struct carries no
// padding beyond FiveTuple's own: 96 bytes with the pool pointer and the
// queue link, which fills Go's 96-byte allocation size class exactly
// (TestPacketSize). A data packet's payload length is derived from Size
// (Payload), not stored, and the QCN feedback and the hint occupancy
// share one word.
type Packet struct {
	// Size is the wire size in bytes, including all headers.
	Size int

	// PSN is the packet sequence number for Data, or the cumulative /
	// expected PSN for Ack and Nack.
	PSN int64

	// feedback is the one value a feedback frame carries, read through
	// QCNFeedback (a QCNFb frame's quantized feedback, as float64 bits)
	// and HintQueueBytes (a Hint frame's egress occupancy, as an int64).
	// No frame carries both, so they share the word.
	feedback uint64

	// AckPayload, with AckCount and AckMarked below, summarizes what a
	// cumulative ACK newly acknowledges: its payload bytes, the in-order
	// data packets covered since the previous ACK, and how many of them
	// arrived CE-marked. ECN-fraction controllers (DCTCP-style,
	// internal/cc) consume the ratio; DCQCN ignores all three (it reacts
	// to CNPs instead).
	AckPayload int64

	// SentAt is stamped by the origin NIC when the packet first enters the
	// network; used for latency accounting.
	SentAt simtime.Time

	// pool is the free list the packet returns to on Release; nil for a
	// packet built without one.
	pool *Pool
	// next links the packet to the one behind it in its Queue: &end at
	// the tail, nil when the packet is in no queue.
	next *Packet

	Flow      FlowID
	AckCount  int32
	AckMarked int32

	// ingress bookkeeping used by switches to release shared-buffer
	// accounting when the packet departs. Internal to the fabric.
	InPort int32

	Tuple FiveTuple

	Type Type
	// Priority is the PFC traffic class (0..7).
	Priority uint8

	// ECNCapable marks the packet ECT: switches may mark instead of drop.
	ECNCapable bool
	// CE is the congestion-experienced mark set by a congested switch.
	CE bool
	// ECE is the per-packet ECN echo carried by DCTCP ACKs (DCTCP needs
	// exact per-packet feedback; RoCEv2/DCQCN uses CNPs instead).
	ECE bool

	// Last marks the final segment of an application message, so the
	// receiver can account message completions.
	Last bool

	// PausePrio and PauseOn describe PFC frames: the class being paused
	// and whether this is XOFF (true) or XON (false).
	PausePrio uint8
	PauseOn   bool
}

// poolCap bounds each pool's free list. A device's packets return to it
// as fast as it builds new ones in steady state, so a short list covers
// the churn; a longer one would only keep the start-up burst's peak
// alive as idle heap for the rest of the run.
const poolCap = 8

// Pool is a bounded LIFO free list of packets, owned by the one device
// that builds them (a NIC, a port). Its constructor methods reuse a
// released packet when one is free and allocate otherwise; a nil *Pool
// always allocates, which is what the package-level constructors do.
// A packet built by a pool records it, and Release returns it there.
//
// A Pool is not safe for concurrent use; like the rest of the model it
// belongs to one single-threaded simulation.
type Pool struct {
	free []*Packet
}

// get returns a packet for a constructor to overwrite: the most recently
// released one, or a fresh one.
//
//hot:path
func (pl *Pool) get() *Packet {
	if pl != nil {
		if n := len(pl.free); n > 0 {
			p := pl.free[n-1]
			pl.free = pl.free[:n-1]
			return p
		}
	}
	return newPacket(pl)
}

// newPacket allocates a packet, and for a pool without one yet its free
// list at full capacity, so Release never grows it. It stays out of line
// so the packet path's only allocation site is this one function, not
// every inlined copy of get or Release.
//
//go:noinline
//hot:path
func newPacket(pl *Pool) *Packet {
	// Amortized pool growth: a device allocates only while its packets
	// in flight reach a new peak. Accepted in escape.golden.
	if pl != nil && pl.free == nil {
		pl.free = make([]*Packet, 0, poolCap)
	}
	return &Packet{}
}

// released poisons the Type of a released pool packet, so a second
// Release, or a device consuming a released packet, is caught.
const released Type = 0xff

// Release hands p back to the pool that built it, at its last use: a
// device consumed it, or a switch or link dropped it. Nothing may touch
// p afterwards: the pool's next constructor call overwrites it. On a
// packet built without a pool Release does nothing. Releasing a packet
// twice, or one that is still in a Queue, panics.
//
//hot:path
func (p *Packet) Release() {
	if p.next != nil {
		panic(errReleaseQueued)
	}
	pl := p.pool
	if pl == nil {
		return
	}
	if p.Type == released {
		releasedTwice()
	}
	p.Type = released
	if len(pl.free) < cap(pl.free) {
		pl.free = append(pl.free, p)
	}
}

// releasedTwice reports a double Release. It stays out of line so the
// panic's boxed message is not inlined, with Release, into every hot
// caller.
//
//go:noinline
func releasedTwice() { panic("packet: released twice") }

// NewData builds a data segment of the given payload size for flow f.
func (pl *Pool) NewData(f FlowID, tuple FiveTuple, psn int64, payload int, last bool) *Packet {
	p := pl.get()
	*p = Packet{
		Type:       Data,
		Flow:       f,
		Tuple:      tuple,
		Size:       payload + HeaderBytes,
		Priority:   PrioData,
		PSN:        psn,
		ECNCapable: true,
		Last:       last,
		pool:       pl,
	}
	return p
}

// NewAck builds a cumulative acknowledgement up to (and including) psn,
// flowing from the receiver back to the sender, so its tuple is reversed.
func (pl *Pool) NewAck(f FlowID, tuple FiveTuple, psn int64) *Packet {
	p := pl.get()
	*p = Packet{
		Type:     Ack,
		Flow:     f,
		Tuple:    tuple.Reverse(),
		Size:     ControlBytes,
		Priority: PrioControl,
		PSN:      psn,
		pool:     pl,
	}
	return p
}

// NewNack builds an out-of-sequence NAK asking the sender to resume from
// expected.
func (pl *Pool) NewNack(f FlowID, tuple FiveTuple, expected int64) *Packet {
	p := pl.get()
	*p = Packet{
		Type:     Nack,
		Flow:     f,
		Tuple:    tuple.Reverse(),
		Size:     ControlBytes,
		Priority: PrioControl,
		PSN:      expected,
		pool:     pl,
	}
	return p
}

// NewCNP builds a Congestion Notification Packet for flow f, addressed
// back to the flow's sender.
func (pl *Pool) NewCNP(f FlowID, tuple FiveTuple) *Packet {
	p := pl.get()
	*p = Packet{
		Type:     CNP,
		Flow:     f,
		Tuple:    tuple.Reverse(),
		Size:     ControlBytes,
		Priority: PrioControl,
		pool:     pl,
	}
	return p
}

// NewPFC builds a PFC frame pausing (on=true) or resuming (on=false) the
// given priority. PFC frames are link-local: they are consumed by the
// device at the other end of the link and never forwarded.
func (pl *Pool) NewPFC(prio uint8, on bool) *Packet {
	t := Resume
	if on {
		t = Pause
	}
	p := pl.get()
	*p = Packet{
		Type:      t,
		Size:      ControlBytes,
		Priority:  NumPriorities - 1, // PFC frames use the highest class
		PausePrio: prio,
		PauseOn:   on,
		pool:      pl,
	}
	return p
}

// NewData builds a data segment without a pool.
func NewData(f FlowID, tuple FiveTuple, psn int64, payload int, last bool) *Packet {
	return (*Pool)(nil).NewData(f, tuple, psn, payload, last)
}

// NewAck builds an acknowledgement without a pool.
func NewAck(f FlowID, tuple FiveTuple, psn int64) *Packet {
	return (*Pool)(nil).NewAck(f, tuple, psn)
}

// NewNack builds a NAK without a pool.
func NewNack(f FlowID, tuple FiveTuple, expected int64) *Packet {
	return (*Pool)(nil).NewNack(f, tuple, expected)
}

// NewCNP builds a CNP without a pool.
func NewCNP(f FlowID, tuple FiveTuple) *Packet {
	return (*Pool)(nil).NewCNP(f, tuple)
}

// NewPFC builds a PFC frame without a pool.
func NewPFC(prio uint8, on bool) *Packet {
	return (*Pool)(nil).NewPFC(prio, on)
}

// NewHint builds a switch-assist occupancy hint addressed back to the
// flow's sender, reporting qlen bytes queued at the congested egress.
// Unlike QCN feedback, hints carry the flow's IP tuple and are routed
// across the fabric like CNPs, so they work beyond one L2 domain. Hints
// are switch-originated and rare, so they take no pool.
func NewHint(f FlowID, tuple FiveTuple, qlen int64) *Packet {
	return &Packet{
		Type:     Hint,
		Flow:     f,
		Tuple:    tuple.Reverse(),
		Size:     ControlBytes,
		Priority: PrioControl,
		feedback: uint64(qlen),
	}
}

// NewQCNFb builds a QCN congestion feedback frame carrying the quantized
// feedback fb, addressed back to the source of the sampled packet whose
// tuple is given. QCN is a baseline whose congestion points sample
// rarely, so its frames take no pool.
func NewQCNFb(f FlowID, tuple FiveTuple, fb float64) *Packet {
	return &Packet{
		Type:     QCNFb,
		Flow:     f,
		Tuple:    tuple.Reverse(),
		Size:     ControlBytes,
		Priority: PrioControl,
		feedback: math.Float64bits(fb),
	}
}

// QCNFeedback returns the quantized congestion feedback of a QCNFb
// frame: 0 for every other kind.
func (p *Packet) QCNFeedback() float64 {
	if p.Type != QCNFb {
		return 0
	}
	return math.Float64frombits(p.feedback)
}

// HintQueueBytes returns the egress occupancy a switch-assist Hint frame
// reports back to the flow's source (internal/cc switch-assist): 0 for
// every other kind.
func (p *Packet) HintQueueBytes() int64 {
	if p.Type != Hint {
		return 0
	}
	return int64(p.feedback)
}

// Reverse returns the tuple of the reverse direction of the flow.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		Src: ft.Dst, Dst: ft.Src,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

// Hash returns a 64-bit FNV-1a hash of the tuple mixed with seed. Switches
// use it for ECMP next-hop selection; different switches use different
// seeds, as real deployments do, so a flow's path is a joint function of
// its tuple and every hop's hash configuration.
//
// The hash is byte-wise FNV-1a, from an offset basis xored with seed,
// over four 8-byte words, each low byte first: Src, Dst,
// SrcPort<<16|DstPort and Proto, zero-extended. Nineteen of those 32
// bytes are always zero, and FNV-1a's step for a zero byte is a bare
// multiply by the prime. So each word's last possibly nonzero byte and
// the zero bytes after it fold into one multiply by a power of the
// prime (mod 2^64): 13 multiplies instead of 32, and the same value.
//
//hot:path
func (ft FiveTuple) Hash(seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
		mask   = 1<<64 - 1
		prime2 = (prime * prime) & mask
		prime4 = (prime2 * prime2) & mask
		prime5 = (prime4 * prime) & mask  // a byte, then 4 zero bytes
		prime8 = (prime4 * prime4) & mask // a byte, then 7 zero bytes
	)
	h := uint64(offset) ^ seed
	for _, w := range [3]uint32{uint32(ft.Src), uint32(ft.Dst), uint32(ft.SrcPort)<<16 | uint32(ft.DstPort)} {
		h = (h ^ uint64(w&0xff)) * prime
		h = (h ^ uint64(w>>8&0xff)) * prime
		h = (h ^ uint64(w>>16&0xff)) * prime
		h = (h ^ uint64(w>>24)) * prime5
	}
	return (h ^ uint64(ft.Proto)) * prime8
}

// Payload returns the transport payload length of a Data packet, its
// wire size less the framing: 0 for every other kind.
func (p *Packet) Payload() int {
	if p.Type != Data {
		return 0
	}
	return p.Size - HeaderBytes
}

// IsControl reports whether the packet is a control frame that must never
// be blocked by PFC (PFC frames themselves and, per the paper's design,
// high-priority CNPs ride a class PFC does not pause in our scenarios).
func (p *Packet) IsControl() bool {
	return p.Type == Pause || p.Type == Resume
}

// String renders a compact human-readable description for traces.
func (p *Packet) String() string {
	switch p.Type {
	case Data:
		return fmt.Sprintf("DATA f%d psn=%d %dB prio=%d ce=%v", p.Flow, p.PSN, p.Size, p.Priority, p.CE)
	case Ack:
		return fmt.Sprintf("ACK f%d psn=%d", p.Flow, p.PSN)
	case Nack:
		return fmt.Sprintf("NACK f%d expected=%d", p.Flow, p.PSN)
	case CNP:
		return fmt.Sprintf("CNP f%d", p.Flow)
	case Pause:
		return fmt.Sprintf("PAUSE prio=%d", p.PausePrio)
	case Resume:
		return fmt.Sprintf("RESUME prio=%d", p.PausePrio)
	default:
		return fmt.Sprintf("%s f%d", p.Type, p.Flow)
	}
}
