// Package flightrec is the simulator's flight recorder: a deterministic,
// bounded-memory ring buffer of typed per-run events — packet
// enqueue/dequeue/drop/ECN-mark, PFC XOFF/XON, CNP emit/receive,
// rate-limiter updates and fault-injector transitions — captured through
// the passive hook surface (link.Port.OnRx/OnEnqueue/OnDeparture,
// fabric.Switch.OnDrop/OnMark, nic.NIC.OnCNPEmit/OnRateUpdate,
// link.Link.OnDrop, topology.Network.OnFault).
//
// The recorder is a strict observer under the same contract as the
// invariant auditor: it never schedules events, draws randomness, or
// mutates model state, so an armed run's engine digest is bit-identical
// to an unarmed one (the passivity test in internal/experiments pins
// all sixteen golden digests with recording on).
//
// Storage is a chunked ring with a compact binary encoding: port and
// label names are interned once into a string table, timestamps are
// uvarint deltas against the previous event of the chunk, and the
// remaining fields are varints. When the retained encoding exceeds
// Config.MaxBytes the oldest whole chunks are evicted, so memory stays
// bounded no matter how long the run is while the tail — where the
// interesting cascade usually lives — survives.
//
// Three consumers sit on top of the buffer: the query layer
// (FlowTimeline and the causal PauseChain reconstructor that prints the
// paper's §2 XOFF cascade as a tree), Diff (first diverging event
// between two recordings, with context), and the CSV / Chrome
// trace-event exporters (see export.go; the JSON loads in Perfetto or
// chrome://tracing).
package flightrec

import (
	"encoding/binary"
	"fmt"

	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// Kind is the event type tag.
type Kind uint8

// Event kinds.
const (
	// KindEnqueue: a packet entered an egress FIFO of the port.
	KindEnqueue Kind = iota
	// KindDequeue: a packet's last bit left the port (departure).
	KindDequeue
	// KindDrop: a switch tail-dropped the packet at admission; Port is
	// the ingress port the packet arrived on.
	KindDrop
	// KindLinkDrop: a link destroyed the frame (down cable, fault hook,
	// random loss, flap); Port is the transmitting port, Label the
	// link.DropReason.
	KindLinkDrop
	// KindMark: a switch CE-marked the packet; Port is the egress port
	// the marked packet left through.
	KindMark
	// KindXoff: the port received a PFC PAUSE frame for priority Prio.
	KindXoff
	// KindXon: the port received a PFC RESUME frame for priority Prio.
	KindXon
	// KindCNPEmit: the NIC behind the port emitted a CNP as a receiver.
	KindCNPEmit
	// KindCNPRecv: a CNP arrived at the sending NIC's port.
	KindCNPRecv
	// KindRate: the flow's rate limiter moved; Arg is the new rate in
	// bits per second.
	KindRate
	// KindFault: a fault-injector transition; Label is
	// "kind/target/phase", Arg the plan index.
	KindFault

	numKinds
)

var kindNames = [...]string{
	"enqueue", "dequeue", "drop", "link-drop", "ecn-mark",
	"pfc-xoff", "pfc-xon", "cnp-emit", "cnp-recv", "rate", "fault",
}

// String names the kind as the exporters spell it.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one decoded flight-recorder record.
type Event struct {
	// Seq is the absolute per-run sequence number (0-based, counting
	// evicted events too).
	Seq int
	// At is the simulated time the event was recorded.
	At simtime.Time
	// Kind tags the record.
	Kind Kind
	// Port is the interned port name the event happened at ("" for
	// KindFault). Node is the owning device, resolved from attach-time
	// metadata.
	Port string
	Node string
	// Type is the packet type for packet-carrying kinds.
	Type packet.Type
	// Flow is the flow id, or 0 when the event has no flow (PFC, fault).
	Flow packet.FlowID
	// PSN is the packet sequence number for data/ack kinds.
	PSN int64
	// Size is the wire size in bytes of the packet involved.
	Size int
	// Prio is the traffic class (for PFC kinds: the paused class).
	Prio uint8
	// Arg is the kind-specific argument (rate in b/s for KindRate, plan
	// index for KindFault).
	Arg int64
	// Label is the kind-specific interned string (drop reason, fault
	// description).
	Label string
}

// String renders one event the way Diff and the replay CLI print it.
func (e Event) String() string {
	where := e.Port
	if e.Node != "" && e.Node != e.Port {
		where = e.Node + " " + e.Port
	}
	switch e.Kind {
	case KindXoff, KindXon:
		return fmt.Sprintf("#%d %s %s at %s prio=%d", e.Seq, e.At, e.Kind, where, e.Prio)
	case KindRate:
		return fmt.Sprintf("#%d %s %s at %s flow=%d %.3f Gb/s", e.Seq, e.At, e.Kind, where, e.Flow, float64(e.Arg)/1e9)
	case KindFault:
		return fmt.Sprintf("#%d %s %s %s (plan #%d)", e.Seq, e.At, e.Kind, e.Label, e.Arg)
	case KindLinkDrop:
		return fmt.Sprintf("#%d %s %s at %s %s flow=%d psn=%d reason=%s", e.Seq, e.At, e.Kind, where, e.Type, e.Flow, e.PSN, e.Label)
	default:
		return fmt.Sprintf("#%d %s %s at %s %s flow=%d psn=%d %dB prio=%d", e.Seq, e.At, e.Kind, where, e.Type, e.Flow, e.PSN, e.Size, e.Prio)
	}
}

// Config bounds the recorder.
type Config struct {
	// MaxBytes caps the retained encoded size; oldest whole chunks are
	// evicted beyond it. Zero means DefaultMaxBytes.
	MaxBytes int
}

// DefaultMaxBytes retains roughly the last 1–2 million events.
const DefaultMaxBytes = 16 << 20

// chunkTarget is the encoded size at which the active chunk is sealed.
// Small enough that whole-chunk eviction has fine granularity, large
// enough that per-chunk overhead (base timestamp, first-seq) vanishes.
const chunkTarget = 64 << 10

func (c Config) maxBytes() int {
	if c.MaxBytes > 0 {
		return c.MaxBytes
	}
	return DefaultMaxBytes
}

// chunk is one contiguous run of encoded events. base is the timestamp
// of the first event; within the chunk, times are uvarint deltas from
// the previous event.
type chunk struct {
	base     simtime.Time
	firstSeq int
	count    int
	buf      []byte
}

// PortInfo is attach-time metadata for one connected port.
type PortInfo struct {
	// Port is the port name; Node the owning device.
	Port string
	Node string
	// Peer and PeerNode identify the other end of the wire ("" if the
	// port is unwired — testbed switches keep slack ports).
	Peer     string
	PeerNode string
	// Host reports whether the owning device is a host NIC.
	Host bool
}

// Recorder captures one network's events. Create it with Attach; it is
// single-threaded like the simulation it observes.
type Recorder struct {
	net *topology.Network
	cfg Config

	// String interning: ids are assigned in first-use order, so the
	// table — and with it the whole encoding — is deterministic.
	strings   []string
	stringIDs map[string]uint32

	chunks []*chunk // sealed, oldest first
	active *chunk
	sealed int // total bytes across sealed chunks
	// spare is the last evicted chunk, kept to become the next active
	// chunk, so a wrapping ring reuses its buffers instead of
	// allocating one per seal.
	spare *chunk

	seq     int          // events recorded (including evicted)
	evicted int          // events lost to ring eviction
	lastAt  simtime.Time // timestamp of the newest record
	byKind  [numKinds]int64

	// meta maps port name -> info (lookup only; ordered iteration goes
	// through ports / nodes below, per the maporder contract).
	meta  map[string]PortInfo
	ports []PortInfo // registration order
	nodes []string   // device names, registration order
	// nodePorts maps node -> its port names in registration order.
	nodePorts map[string][]string
}

func newRecorder(net *topology.Network, cfg Config) *Recorder {
	r := &Recorder{
		net:       net,
		cfg:       cfg,
		stringIDs: make(map[string]uint32),
		meta:      make(map[string]PortInfo),
		nodePorts: make(map[string][]string),
	}
	r.intern("") // id 0 is the empty label
	return r
}

// intern returns the stable id of s, assigning one on first use.
// Amortized: every steady-state record call hits the map, and the
// append below runs once per distinct string for the whole run.
//
//hot:path
func (r *Recorder) intern(s string) uint32 {
	if id, ok := r.stringIDs[s]; ok {
		return id
	}
	id := uint32(len(r.strings))
	r.strings = append(r.strings, s)
	r.stringIDs[s] = id
	return id
}

// record appends one event to the ring. portID and labelID must come
// from intern (taps pre-intern their port names once at attach).
//
//hot:path
func (r *Recorder) record(kind Kind, portID uint32, ptype packet.Type, flow packet.FlowID, psn int64, size int, prio uint8, arg int64, labelID uint32) {
	now := r.net.Sim.Now()
	if r.active == nil || len(r.active.buf) >= chunkTarget {
		r.seal(now)
	}
	c := r.active
	dt := now.Sub(r.lastAt) // engine time is monotonic: dt >= 0
	if c.count == 0 {
		dt = 0 // first event of a chunk is the chunk base itself
	}
	b := c.buf
	b = append(b, byte(kind))
	b = binary.AppendUvarint(b, uint64(dt))
	b = binary.AppendUvarint(b, uint64(portID))
	b = append(b, byte(ptype))
	b = binary.AppendVarint(b, int64(flow))
	b = binary.AppendVarint(b, psn)
	b = binary.AppendUvarint(b, uint64(size))
	b = append(b, prio)
	b = binary.AppendVarint(b, arg)
	b = binary.AppendUvarint(b, uint64(labelID))
	c.buf = b
	c.count++
	r.seq++
	r.lastAt = now
	r.byKind[kind]++
	r.evict()
}

// seal closes the active chunk and opens a fresh one based at now.
//
//hot:path
func (r *Recorder) seal(now simtime.Time) {
	if r.active != nil && r.active.count > 0 {
		r.sealed += len(r.active.buf)
		r.chunks = append(r.chunks, r.active)
	}
	if c := r.spare; c != nil {
		r.spare = nil
		*c = chunk{base: now, firstSeq: r.seq, buf: c.buf[:0]}
		r.active = c
	} else {
		// One chunk header per 64 KiB of encoded events, amortized over
		// ~10k records, until the ring wraps. Accepted in escape.golden.
		r.active = &chunk{base: now, firstSeq: r.seq, buf: make([]byte, 0, chunkTarget+64)}
	}
	r.lastAt = now
}

// evict drops oldest sealed chunks while the retained encoding exceeds
// the budget. The active chunk is never evicted, so the budget is a
// soft cap of MaxBytes + one chunk. The victim's slot is cleared before
// the list is re-sliced past it — otherwise the backing array would keep
// evicted chunks reachable until the next append reallocates it — and
// the victim is kept as the spare for the next seal.
//
//hot:path
func (r *Recorder) evict() {
	budget := r.cfg.maxBytes()
	for len(r.chunks) > 0 && r.sealed+len(r.active.buf) > budget {
		victim := r.chunks[0]
		r.chunks[0] = nil
		r.chunks = r.chunks[1:]
		r.sealed -= len(victim.buf)
		r.evicted += victim.count
		r.spare = victim
	}
}

// EventsRecorded returns how many events the run produced, including
// any that were evicted from the ring.
func (r *Recorder) EventsRecorded() int { return r.seq }

// EventsRetained returns how many events are currently decodable.
func (r *Recorder) EventsRetained() int { return r.seq - r.evicted }

// EventsEvicted returns how many events the ring discarded.
func (r *Recorder) EventsEvicted() int { return r.evicted }

// RetainedBytes returns the encoded size currently held.
func (r *Recorder) RetainedBytes() int {
	n := r.sealed
	if r.active != nil {
		n += len(r.active.buf)
	}
	return n
}

// CountByKind returns how many events of kind were recorded (lifetime,
// not retention).
func (r *Recorder) CountByKind(k Kind) int64 { return r.byKind[k] }

// LastAt returns the timestamp of the newest record (the export
// horizon for still-open pause intervals).
func (r *Recorder) LastAt() simtime.Time { return r.lastAt }

// Ports returns attach-time metadata for every connected port, in
// registration order (switch ports first, then host ports).
func (r *Recorder) Ports() []PortInfo { return r.ports }

// Nodes returns device names in registration order.
func (r *Recorder) Nodes() []string { return r.nodes }

// PortInfoFor returns the metadata of one port name.
func (r *Recorder) PortInfoFor(port string) (PortInfo, bool) {
	pi, ok := r.meta[port]
	return pi, ok
}

// Each decodes the retained events oldest-first, stopping early if fn
// returns false.
func (r *Recorder) Each(fn func(Event) bool) {
	for _, c := range r.chunks {
		if !r.eachChunk(c, fn) {
			return
		}
	}
	if r.active != nil {
		r.eachChunk(r.active, fn)
	}
}

func (r *Recorder) eachChunk(c *chunk, fn func(Event) bool) bool {
	t := c.base
	seq := c.firstSeq
	buf := c.buf
	for i := 0; i < c.count; i++ {
		kind := Kind(buf[0])
		buf = buf[1:]
		dt, n := binary.Uvarint(buf)
		buf = buf[n:]
		portID, n := binary.Uvarint(buf)
		buf = buf[n:]
		ptype := packet.Type(buf[0])
		buf = buf[1:]
		flow, n := binary.Varint(buf)
		buf = buf[n:]
		psn, n := binary.Varint(buf)
		buf = buf[n:]
		size, n := binary.Uvarint(buf)
		buf = buf[n:]
		prio := buf[0]
		buf = buf[1:]
		arg, n := binary.Varint(buf)
		buf = buf[n:]
		labelID, n := binary.Uvarint(buf)
		buf = buf[n:]

		t = t.Add(simtime.Duration(dt))
		port := r.strings[portID]
		ev := Event{
			Seq: seq, At: t, Kind: kind,
			Port: port, Node: r.meta[port].Node,
			Type: ptype, Flow: packet.FlowID(flow), PSN: psn,
			Size: int(size), Prio: prio, Arg: arg,
			Label: r.strings[labelID],
		}
		seq++
		if !fn(ev) {
			return false
		}
	}
	return true
}

// Events materializes the retained events oldest-first.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.EventsRetained())
	r.Each(func(e Event) bool {
		out = append(out, e)
		return true
	})
	return out
}
