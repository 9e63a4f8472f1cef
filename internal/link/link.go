// Package link models full-duplex point-to-point Ethernet links and the
// transmit side of device ports.
//
// A Port owns eight per-priority egress FIFOs, a strict-priority scheduler
// and the PFC pause state for its link. Both NICs and switches embed Ports,
// so the PFC semantics — per-priority XOFF/XON with quanta-based expiry,
// transmissions in progress never abandoned — live in exactly one place.
//
// A Link joins two Ports and adds serialization (at the port rate) plus
// propagation delay. Store-and-forward is assumed: the receiving device
// sees a packet only after its last bit arrives.
package link

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dcqcn/internal/engine"
	"dcqcn/internal/eventq"
	"dcqcn/internal/hooks"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// Receiver consumes packets a port delivers to its owning device. PFC
// frames are consumed by the port itself and are not passed to the
// Receiver; all other packets are.
type Receiver interface {
	HandlePacket(p *packet.Packet, port *Port)
}

// DefaultPauseDuration is the pause time carried by an XOFF frame:
// the maximum 65535 PFC quanta of 512 bit-times at 40 Gb/s (~839 µs).
// The pausing device refreshes XOFF at half this interval while its
// ingress queue remains above threshold, as real switches do, which is
// what makes PAUSE-frame counts (Fig. 15) proportional to congestion
// duration.
const DefaultPauseDuration = simtime.Duration(65535*512) * (simtime.Second / (40 * 1000 * 1000 * 1000))

// PortStats counts per-port activity.
type PortStats struct {
	TxPackets   int64
	TxBytes     int64
	RxPackets   int64
	RxBytes     int64
	PauseTx     int64 // XOFF frames sent
	PauseRx     int64 // XOFF frames received
	ResumeTx    int64 // XON frames sent
	ResumeRx    int64 // XON frames received
	PausedFor   [packet.NumPriorities]simtime.Duration
	Drops       int64
	pauseActive [packet.NumPriorities]bool
	pausedSince [packet.NumPriorities]simtime.Time
}

// Port is one side of a link: a strict-priority, PFC-aware transmitter
// plus the receive hook of its owning device.
type Port struct {
	Name string
	// Index is the owning device's port number; devices use it for
	// routing tables and ingress accounting.
	Index int

	sim  *engine.Sim
	rate simtime.Rate
	recv Receiver
	link *Link
	peer *Port

	// queues are the per-priority egress FIFOs. Each links its packets
	// through the packets themselves, so a queue that drained after a
	// burst holds nothing.
	queues [packet.NumPriorities]packet.Queue
	// Accounting: bytes waiting in the egress FIFOs, one slot per priority
	queuedBytes [packet.NumPriorities]int64
	// Accounting: bytes waiting in all egress FIFOs, the sum of queuedBytes
	queuedTotal int64
	pausedUntil [packet.NumPriorities]simtime.Time
	// nonempty has bit prio set exactly when queues[prio] holds a packet:
	// Enqueue sets it and popFrom clears it when the FIFO drains, so the
	// scheduler visits only the classes that have something to send.
	nonempty uint8
	busy     bool
	// txSize and txTime memoize the serialization delay of the last
	// frame size the port started: txTime is rate.TxTime(txSize), and
	// rate never changes after NewPort. The zero memo is exact too, as
	// a frame of 0 bytes takes 0 ps.
	txSize int
	txTime simtime.Duration
	// txPkt is the frame currently serializing (nil when idle). Holding
	// it in the port instead of a per-transmission closure keeps kick()
	// allocation-free: txDone is the one pre-bound completion
	// continuation, created at construction, and busy guarantees at most
	// one transmission is outstanding, so a single slot suffices.
	txPkt  *packet.Packet
	txDone func()
	// pool is the free list of the PFC frames this port sends; the peer
	// port releases each one after acting on it.
	pool packet.Pool
	// expiry holds the pause-expiry timers, built at the first XOFF the
	// port receives: a port no peer ever pauses carries only the nil
	// pointer.
	expiry *pauseExpiry

	// DRR state (EnableDRR): deficit counters and round pointer for the
	// data classes.
	drr        bool
	drrQuantum int64
	deficits   [packet.NumPriorities]int64
	drrNext    int
	drrServing bool

	// Every packet hook below lends its callee the packet for the call
	// only: the callee must not keep the pointer after it returns,
	// because the packet goes back to the pool of the device that built
	// it at its last use and is then rebuilt as another packet. Copy the
	// fields an observer needs during the call.

	// OnDeparture, if set, runs when a packet's last bit leaves the port.
	// Switches use it to release shared-buffer accounting.
	OnDeparture func(p *packet.Packet)
	// OnPFC, if set, observes PFC frames this port receives (after the
	// pause state has been updated); used for experiment counters. The
	// frame is released right after it returns.
	OnPFC func(p *packet.Packet)
	// OnRx, if set, observes every packet whose last bit arrives at this
	// port, before any processing — including PFC frames the port
	// consumes itself. It is a strictly passive tap (the invariant
	// auditor's attachment point): implementations must not schedule
	// events, draw randomness, mutate the packet, or keep it.
	OnRx func(p *packet.Packet)
	// OnEnqueue, if set, observes every packet entering an egress FIFO of
	// this port, before the scheduler is kicked. Strictly passive, same
	// contract as OnRx; the flight recorder uses it for queue-residency
	// timelines.
	OnEnqueue func(p *packet.Packet)

	Stats PortStats
}

// NewPort creates a port transmitting at rate whose received packets are
// handed to recv.
func NewPort(sim *engine.Sim, name string, index int, rate simtime.Rate, recv Receiver) *Port {
	if rate <= 0 {
		panic("link: port rate must be positive")
	}
	p := &Port{Name: name, Index: index, sim: sim, rate: rate, recv: recv}
	p.txDone = p.finishTx
	return p
}

// pauseExpiry re-arms a port's scheduler when a pause ends by quanta
// expiry, in case no other event wakes the port. Each priority keeps at
// most one expiry pending: an XOFF received cancels it and schedules the
// next at the new pausedUntil, because an expiry that a later XOFF
// outlived would only fire with the priority still paused.
type pauseExpiry struct {
	// fire holds one continuation per priority, bound once, so an XOFF
	// allocates nothing after the port's first.
	fire    [packet.NumPriorities]func()
	pending [packet.NumPriorities]eventq.Handle
}

// newPauseExpiry builds p's expiry timers at the first XOFF it receives.
// It stays out of line so that the receive path's only allocation site
// is this one function.
//
//go:noinline
//hot:path
func newPauseExpiry(p *Port) *pauseExpiry {
	// Once per port, at its first pause. Accepted in escape.golden.
	e := &pauseExpiry{}
	for prio := range e.fire {
		prio := uint8(prio)
		e.fire[prio] = func() {
			if !p.Paused(prio) {
				p.accountPauseEnd(prio)
				p.kick()
			}
		}
	}
	return e
}

// Rate returns the port's line rate.
func (p *Port) Rate() simtime.Rate { return p.rate }

// Peer returns the port at the other end of the link, or nil if unwired.
func (p *Port) Peer() *Port { return p.peer }

// Connected reports whether the port is attached to a link.
func (p *Port) Connected() bool { return p.link != nil }

// QueuedBytes returns the bytes waiting in the egress FIFO of one
// priority (excluding any frame currently serializing).
//
//hot:path
func (p *Port) QueuedBytes(prio uint8) int64 { return p.queuedBytes[prio] }

// TotalQueuedBytes returns bytes waiting across all priorities.
//
//hot:path
func (p *Port) TotalQueuedBytes() int64 { return p.queuedTotal }

// Paused reports whether transmission of prio is currently inhibited by
// PFC.
//
//hot:path
func (p *Port) Paused(prio uint8) bool {
	return p.sim.Now() < p.pausedUntil[prio]
}

// Enqueue places pkt on the egress FIFO of its priority and starts the
// transmitter if idle.
//
//hot:path
func (p *Port) Enqueue(pkt *packet.Packet) {
	if !p.Connected() {
		panic(fmt.Sprintf("link: enqueue on unconnected port %s", p.Name))
	}
	p.queues[pkt.Priority].Push(pkt)
	p.queuedBytes[pkt.Priority] += int64(pkt.Size)
	p.queuedTotal += int64(pkt.Size)
	p.nonempty |= 1 << pkt.Priority
	if p.OnEnqueue != nil {
		p.OnEnqueue(pkt)
	}
	p.kick()
}

// ChainOnRx subscribes fn to the port's OnRx hook without clobbering an
// earlier subscriber (which keeps running first, in attach order).
func (p *Port) ChainOnRx(fn func(*packet.Packet)) {
	p.OnRx = hooks.Chain(p.OnRx, fn)
}

// ChainOnDeparture subscribes fn to the port's OnDeparture hook without
// clobbering an earlier subscriber.
func (p *Port) ChainOnDeparture(fn func(*packet.Packet)) {
	p.OnDeparture = hooks.Chain(p.OnDeparture, fn)
}

// ChainOnEnqueue subscribes fn to the port's OnEnqueue hook without
// clobbering an earlier subscriber.
func (p *Port) ChainOnEnqueue(fn func(*packet.Packet)) {
	p.OnEnqueue = hooks.Chain(p.OnEnqueue, fn)
}

// SendPFC transmits an XOFF (on=true) or XON PFC frame for prio. The
// frame is queued at the highest priority class, ahead of all data, and
// comes from the port's pool.
//
//hot:path
func (p *Port) SendPFC(prio uint8, on bool) {
	pfc := p.pool.NewPFC(prio, on)
	if on {
		p.Stats.PauseTx++
	} else {
		p.Stats.ResumeTx++
	}
	p.Enqueue(pfc)
}

// nextPacket pops the next transmittable packet, or nil. Control classes
// (PrioControl and above) are always served first, strictly; the data
// classes below them follow either strict priority (default) or deficit
// round robin when EnableDRR was called. PFC pause inhibits a class
// until expiry or XON; control frames are never paused in practice
// because nothing sends PAUSE for their classes. Strict priority walks
// the nonempty mask from its highest bit down, so it tests only the
// classes that hold a packet, in the order a scan of all eight would.
//
//hot:path
func (p *Port) nextPacket() *packet.Packet {
	now := p.sim.Now()
	strict := p.nonempty
	if p.drr {
		strict &^= 1<<packet.PrioControl - 1 // DRR serves the data classes below
	}
	for strict != 0 {
		prio := bits.Len8(strict) - 1
		if now >= p.pausedUntil[prio] {
			return p.popFrom(uint8(prio))
		}
		strict &^= 1 << prio
	}
	if !p.drr {
		return nil
	}
	// Deficit round robin over the data classes: a class earns quantum
	// credit when its service turn begins and transmits packets while
	// the credit covers them; idle classes forfeit credit.
	for scanned := 0; scanned <= packet.PrioControl; scanned++ {
		prio := p.drrNext
		if !p.eligible(prio, now) {
			p.deficits[prio] = 0 // idle classes do not hoard credit
			p.drrServing = false
			p.drrNext = (p.drrNext + 1) % packet.PrioControl
			continue
		}
		if !p.drrServing {
			p.deficits[prio] += p.drrQuantum
			p.drrServing = true
		}
		if head := p.queues[prio].Peek(); p.deficits[prio] >= int64(head.Size) {
			p.deficits[prio] -= int64(head.Size)
			return p.popFrom(uint8(prio))
		}
		// Credit exhausted: end this class's turn, keep its deficit.
		p.drrServing = false
		p.drrNext = (p.drrNext + 1) % packet.PrioControl
	}
	return nil
}

// eligible reports whether the FIFO of prio holds a packet the
// scheduler may transmit at time now. (A method, not a closure inside
// nextPacket, to keep the scheduler allocation-free under the hot-path
// contract.)
//
//hot:path
func (p *Port) eligible(prio int, now simtime.Time) bool {
	return p.nonempty&(1<<prio) != 0 && now >= p.pausedUntil[prio]
}

//hot:path
func (p *Port) popFrom(prio uint8) *packet.Packet {
	q := &p.queues[prio]
	pkt := q.Pop()
	if q.Empty() {
		p.nonempty &^= 1 << prio
	}
	p.queuedBytes[prio] -= int64(pkt.Size)
	p.queuedTotal -= int64(pkt.Size)
	return pkt
}

// EnableDRR switches the data classes (below PrioControl) from strict
// priority to deficit-round-robin scheduling with the given per-round
// byte quantum — how real shared switches divide bandwidth between
// traffic classes. Control classes stay strictly prioritized.
func (p *Port) EnableDRR(quantum int64) {
	// A quantum below the maximum frame size could leave a queue unable
	// to earn enough credit in one turn, stalling the scheduler between
	// kicks; real DRR implementations impose the same floor.
	if quantum < packet.MaxFrameBytes {
		panic("link: DRR quantum must be at least one maximum frame")
	}
	p.drr = true
	p.drrQuantum = quantum
}

// kick starts a transmission if the port is idle and a transmittable
// packet exists.
//
//hot:path
func (p *Port) kick() {
	if p.busy {
		return
	}
	pkt := p.nextPacket()
	if pkt == nil {
		return
	}
	p.busy = true
	p.txPkt = pkt
	p.sim.After(p.serialization(pkt.Size), p.txDone)
}

// serialization returns rate.TxTime(size) from the port's memo,
// computing it only when size differs from the last frame's. Frames on
// a port mostly repeat one size (a data flow's MTU frames), so the
// divide and the rounding run about once per size change.
//
//hot:path
func (p *Port) serialization(size int) simtime.Duration {
	if size != p.txSize {
		p.txSize, p.txTime = size, p.rate.TxTime(size)
	}
	return p.txTime
}

// finishTx completes the transmission in progress: the last bit of
// txPkt has left the port. It is the target of the pre-bound txDone
// continuation, so serializing a frame costs no closure allocation.
//
//hot:path
func (p *Port) finishTx() {
	pkt := p.txPkt
	p.txPkt = nil
	p.busy = false
	p.Stats.TxPackets++
	p.Stats.TxBytes += int64(pkt.Size)
	if p.OnDeparture != nil {
		p.OnDeparture(pkt)
	}
	p.link.deliver(p, pkt)
	p.kick()
}

// Kick re-evaluates the scheduler; devices call it after a pause expires
// or when external state changes make previously blocked traffic eligible.
func (p *Port) Kick() { p.kick() }

// receive processes a packet whose last bit has arrived at this port.
//
//hot:path
func (p *Port) receive(pkt *packet.Packet) {
	p.Stats.RxPackets++
	p.Stats.RxBytes += int64(pkt.Size)
	if p.OnRx != nil {
		p.OnRx(pkt)
	}
	switch pkt.Type {
	case packet.Pause:
		p.Stats.PauseRx++
		prio := pkt.PausePrio
		if !p.Stats.pauseActive[prio] {
			p.Stats.pauseActive[prio] = true
			p.Stats.pausedSince[prio] = p.sim.Now()
		}
		p.pausedUntil[prio] = p.sim.Now().Add(DefaultPauseDuration)
		// The expiry replaces the pending one, so a refreshed pause
		// keeps one event, not one per XOFF.
		if p.expiry == nil {
			p.expiry = newPauseExpiry(p)
		}
		e := p.expiry
		e.pending[prio] = p.sim.Rearm(e.pending[prio], p.pausedUntil[prio], e.fire[prio])
		if p.OnPFC != nil {
			p.OnPFC(pkt)
		}
		pkt.Release()
	case packet.Resume:
		p.Stats.ResumeRx++
		prio := pkt.PausePrio
		if p.Paused(prio) {
			p.pausedUntil[prio] = p.sim.Now()
			p.accountPauseEnd(prio)
		}
		if p.OnPFC != nil {
			p.OnPFC(pkt)
		}
		pkt.Release()
		p.kick()
	default:
		p.recv.HandlePacket(pkt, p)
	}
}

//hot:path
func (p *Port) accountPauseEnd(prio uint8) {
	if p.Stats.pauseActive[prio] {
		p.Stats.pauseActive[prio] = false
		p.Stats.PausedFor[prio] += p.sim.Now().Sub(p.Stats.pausedSince[prio])
	}
}

// DropReason classifies why a link destroyed a frame, for observers.
type DropReason uint8

// Drop reasons.
const (
	// DropLinkDown: the frame entered a failed cable.
	DropLinkDown DropReason = iota
	// DropFaultHook: the fault injector's DropHook took the frame.
	DropFaultHook
	// DropRandomLoss: random per-frame corruption (SetLossRate).
	DropRandomLoss
	// DropFlapEpoch: a flap occurred while the frame was propagating.
	DropFlapEpoch
)

var dropReasonNames = [...]string{"link-down", "fault-hook", "random-loss", "flap-epoch"}

// String names the reason for traces and exports.
func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return fmt.Sprintf("DropReason(%d)", uint8(r))
}

// Link is a full-duplex cable between two ports.
//
// Per-direction state is kept in two-element arrays indexed by direction
// (0 = a→b, 1 = b→a, matching Ports). Each direction is an independent
// FIFO wire: its own frame numbering, flap watermark, loss stream and
// conservation counters, so one direction's traffic never perturbs the
// other's loss draws or arrival order.
type Link struct {
	a, b  *Port
	delay simtime.Duration
	// sim builds the loss streams on the first SetLossRate(p > 0).
	sim *engine.Sim

	// dirID gives each direction a topology-wide identity (allocated in
	// construction order), and dirSeq numbers the frames entering the
	// wire in each direction. Together they are the equal-time ordering
	// key of arrival events, so simultaneous arrivals fire in an order
	// fixed by the traffic, not by when they were scheduled.
	dirID  [2]uint64
	dirSeq [2]uint64
	// arrive is each direction's arrival continuation, bound once in
	// Connect. The frame rides in the pooled event as its argument, so
	// putting a frame on the wire allocates nothing.
	arrive [2]func(any)
	// arrSeq counts the frames whose propagation ended in each
	// direction. A direction is FIFO (fixed delay, departures serialized
	// by one port), so the arriving frame is always frame number
	// arrSeq[d] of that direction.
	arrSeq [2]uint64

	// lossRate is the probability an individual frame is corrupted in
	// flight (per direction), modelling the non-congestion losses the
	// paper's §7 discusses (optical errors, silent switch drops). PFC
	// control frames are link-local and never dropped: real PFC frames
	// are tiny and protected, and losing one would model a different
	// failure (a misbehaving device) rather than bit errors. Each
	// direction draws from its own stream (seeded from the simulation
	// seed and the direction ID) so loss decisions do not depend on how
	// events interleave across the rest of the fabric. The streams are
	// built on the first positive SetLossRate: nothing draws from them
	// at rate zero, and seeding a math/rand source is the costliest step
	// of Connect.
	lossRate float64
	lossRng  [2]*rand.Rand
	// Accounting: frames dropped by random loss, per direction
	lost [2]int64
	// Accounting: bytes dropped by random loss, per direction
	lostBytes [2]int64

	// down models a failed cable (fault injection): while set, every
	// frame entering the link is lost, and frames already propagating
	// when the link went down never arrive (their photons died with the
	// cable). Every state change sets the flap watermark flapSeq[d] to
	// dirSeq[d]: the frames numbered below it were on the wire at some
	// flap, so an arriving frame whose number is below the watermark is
	// killed. Fault transitions run as control events, so model code only
	// ever reads these fields.
	down    bool
	flapSeq [2]uint64
	// DropHook, if set, is consulted for every frame entering the link
	// (after the down check, before random loss); returning true drops
	// the frame. The fault-injection subsystem uses it for targeted,
	// auxiliary-RNG-driven loss and corruption, so the simulation's
	// primary random stream stays untouched. Like every packet hook it
	// must not keep the packet.
	DropHook func(from *Port, pkt *packet.Packet) bool
	// OnDrop, if set, observes every frame the link destroys — down
	// links, DropHook decisions, random loss and flap-epoch kills —
	// after the corresponding counters are updated, just before the frame
	// is released. Strictly passive (same contract as Port.OnRx, keeping
	// the packet included); unlike DropHook it cannot influence the
	// outcome, so observers and the fault injector never conflict.
	OnDrop func(from *Port, pkt *packet.Packet, reason DropReason)
	// Accounting: frames dropped by injected faults on entry (down links, DropHook), per direction
	entryFaultDrops [2]int64
	// Accounting: frames killed in flight by a flap, per direction
	flapFaultDrops [2]int64
	// Accounting: bytes dropped by injected faults on entry, per direction
	entryFaultDropBytes [2]int64
	// Accounting: bytes killed in flight by a flap, per direction
	flapFaultDropBytes [2]int64
	// Accounting: bytes serialized onto the wire, per direction (written by the sender side)
	sentBytes [2]int64
	// Accounting: bytes whose propagation ended, arrived or flap-killed, per direction (written by the receiver side)
	arrivedBytes [2]int64
}

// Connect wires ports a and b with the given one-way propagation delay.
// Both ports must be unconnected. sim allocates the direction IDs, and
// builds the loss streams if SetLossRate ever turns loss on.
func Connect(sim *engine.Sim, a, b *Port, delay simtime.Duration) *Link {
	if a.Connected() || b.Connected() {
		panic("link: port already connected")
	}
	if delay < 0 {
		panic("link: negative propagation delay")
	}
	l := &Link{a: a, b: b, delay: delay, sim: sim}
	for d := range l.dirID {
		l.dirID[d] = sim.NextID()
		l.arrive[d] = func(pkt any) { l.arrival(d, pkt.(*packet.Packet)) }
	}
	a.link, a.peer = l, b
	b.link, b.peer = l, a
	return l
}

// lossStreamSeed derives the per-direction loss stream seed from the
// simulation seed and the direction's topology-wide ID (splitmix-style
// multipliers keep nearby inputs decorrelated).
func lossStreamSeed(seed int64, dir uint64) int64 {
	return int64(uint64(seed)*0x9E3779B97F4A7C15 ^ (dir+1)*0xD6E8FEB86659FD93)
}

// Ports returns the link's two endpoints.
func (l *Link) Ports() (*Port, *Port) { return l.a, l.b }

// Lost returns the frames dropped by random loss injection (both
// directions).
func (l *Link) Lost() int64 { return l.lost[0] + l.lost[1] }

// LostBytes returns the bytes dropped by random loss injection.
func (l *Link) LostBytes() int64 { return l.lostBytes[0] + l.lostBytes[1] }

// FaultDrops returns the frames dropped by injected faults (down links,
// flap transients and DropHook), separately from random Lost frames.
func (l *Link) FaultDrops() int64 {
	return l.entryFaultDrops[0] + l.entryFaultDrops[1] + l.flapFaultDrops[0] + l.flapFaultDrops[1]
}

// FaultDropBytes returns the bytes dropped by injected faults (down
// links, flap transients and DropHook).
func (l *Link) FaultDropBytes() int64 {
	return l.entryFaultDropBytes[0] + l.entryFaultDropBytes[1] +
		l.flapFaultDropBytes[0] + l.flapFaultDropBytes[1]
}

// InFlightBytes returns the bytes currently propagating on the wire:
// serialized by a transmitter but not yet arrived (or retroactively
// killed by a flap). Together with the port Tx/Rx byte counters and
// the loss counters this closes the link conservation equation
//
//	aTx + bTx == aRx + bRx + LostBytes + FaultDropBytes + InFlightBytes
//
// which the invariant auditor checks at end of run.
func (l *Link) InFlightBytes() int64 {
	var f int64
	for d := 0; d < 2; d++ {
		f += l.sentBytes[d] - l.arrivedBytes[d]
	}
	return f
}

// deliver schedules arrival of pkt at the far end of the link.
//
//hot:path
func (l *Link) deliver(from *Port, pkt *packet.Packet) {
	d := 0
	if from == l.b {
		d = 1
	}
	if l.down {
		l.entryFaultDrops[d]++
		l.entryFaultDropBytes[d] += int64(pkt.Size)
		if l.OnDrop != nil {
			l.OnDrop(from, pkt, DropLinkDown)
		}
		pkt.Release()
		return
	}
	if l.DropHook != nil && l.DropHook(from, pkt) {
		l.entryFaultDrops[d]++
		l.entryFaultDropBytes[d] += int64(pkt.Size)
		if l.OnDrop != nil {
			l.OnDrop(from, pkt, DropFaultHook)
		}
		pkt.Release()
		return
	}
	if l.lossRate > 0 && !pkt.IsControl() && l.lossRng[d].Float64() < l.lossRate {
		l.lost[d]++
		l.lostBytes[d] += int64(pkt.Size)
		if l.OnDrop != nil {
			l.OnDrop(from, pkt, DropRandomLoss)
		}
		pkt.Release()
		return
	}
	l.sentBytes[d] += int64(pkt.Size)
	seq := l.dirSeq[d]
	l.dirSeq[d]++
	from.sim.AtArrival(from.sim.Now().Add(l.delay), l.dirID[d], seq, l.arrive[d], pkt)
}

// arrival ends the propagation of pkt in direction d: the frame reaches
// the far port, unless a flap happened while it was on the wire.
//
//hot:path
func (l *Link) arrival(d int, pkt *packet.Packet) {
	from, to := l.a, l.b
	if d == 1 {
		from, to = l.b, l.a
	}
	l.arrivedBytes[d] += int64(pkt.Size)
	seq := l.arrSeq[d]
	l.arrSeq[d]++
	// A flap while the frame was propagating kills it, even if the link
	// is back up by the time the last bit would have arrived.
	if seq < l.flapSeq[d] {
		l.flapFaultDrops[d]++
		l.flapFaultDropBytes[d] += int64(pkt.Size)
		if l.OnDrop != nil {
			l.OnDrop(from, pkt, DropFlapEpoch)
		}
		pkt.Release()
		return
	}
	to.receive(pkt)
}

// SetDown fails (true) or restores (false) the cable. Going down drops
// all frames currently propagating; coming back up re-kicks both ports,
// whose egress queues kept filling while the cable was dead (transmit
// is not inhibited by a down link — the device does not know).
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	l.flapSeq = l.dirSeq
	if !down {
		l.a.Kick()
		l.b.Kick()
	}
}

// IsDown reports whether the link is currently failed.
func (l *Link) IsDown() bool { return l.down }

// SetLossRate enables random frame corruption on the link with the given
// per-frame probability (both directions). Use 0 to disable. The first
// positive rate seeds each direction's loss stream from the simulation
// seed and the direction ID; nothing draws from a stream at rate zero,
// so when it is built does not change which frames are lost.
func (l *Link) SetLossRate(p float64) {
	if p < 0 || p >= 1 {
		panic("link: loss rate must be in [0,1)")
	}
	if p > 0 && l.lossRng[0] == nil {
		for d := range l.lossRng {
			l.lossRng[d] = l.sim.NewStream(lossStreamSeed(l.sim.Seed(), l.dirID[d]))
		}
	}
	l.lossRate = p
}
