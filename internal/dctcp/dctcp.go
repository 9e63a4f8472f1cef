// Package dctcp implements the DCTCP congestion control of Alizadeh et
// al. (SIGCOMM 2010), the baseline the DCQCN paper compares queueing
// behaviour against in §6.3 and discusses in §8.
//
// Unlike DCQCN (rate-based, CNP feedback, no slow start), DCTCP is
// window-based with per-packet ECN echo:
//
//   - the receiver ACKs every packet, echoing the CE mark (ECE);
//   - the sender keeps an EWMA α of the marked fraction per window and
//     cuts cwnd ← cwnd·(1 − α/2) at most once per window;
//   - standard slow start and additive increase grow the window.
//
// DCTCP hosts attach to the same fabric switches as RDMA NICs; only the
// end-host behaviour differs. The paper's two relevant claims both
// reproduce: DCTCP needs a much larger ECN threshold (K ≈ C·RTT/7) to
// absorb bursts, so its queues run longer than DCQCN's (Fig. 19), and
// its slow start delays bursty transfers (§2.3, ablation).
package dctcp

import (
	"fmt"

	"dcqcn/internal/engine"
	"dcqcn/internal/eventq"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// Config holds DCTCP host parameters.
type Config struct {
	// LineRate is the port speed.
	LineRate simtime.Rate
	// MTU is the payload per packet.
	MTU int
	// G is the EWMA gain for the marked fraction (DCTCP paper: 1/16).
	G float64
	// InitCwnd is the initial congestion window in packets. DCTCP slow
	// starts (unlike DCQCN); the paper calls this out as unsuitable for
	// bursty storage traffic.
	InitCwnd float64
	// MaxCwnd caps the window (packets).
	MaxCwnd float64
	// RTO is the retransmission timeout.
	RTO simtime.Duration
	// SlowStart enables classic slow start; disabling it is the paper's
	// "hyper-fast start" ablation (start at full window).
	SlowStart bool
}

// DefaultConfig returns DCTCP defaults for the 40 Gb/s testbed.
func DefaultConfig() Config {
	return Config{
		LineRate:  40 * simtime.Gbps,
		MTU:       packet.MTU,
		G:         1.0 / 16,
		InitCwnd:  10,
		MaxCwnd:   4096,
		RTO:       4 * simtime.Millisecond,
		SlowStart: true,
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.LineRate <= 0:
		return fmt.Errorf("dctcp: line rate must be positive")
	case c.MTU <= 0 || c.MTU > packet.MTU:
		return fmt.Errorf("dctcp: MTU must be in 1..%d", packet.MTU)
	case c.G <= 0 || c.G >= 1:
		return fmt.Errorf("dctcp: g must be in (0,1)")
	case c.InitCwnd < 1 || c.MaxCwnd < c.InitCwnd:
		return fmt.Errorf("dctcp: need 1 <= InitCwnd <= MaxCwnd")
	case c.RTO <= 0:
		return fmt.Errorf("dctcp: RTO must be positive")
	}
	return nil
}

// Host is a DCTCP endpoint with one fabric port.
type Host struct {
	Name string
	ID   packet.NodeID

	sim  *engine.Sim
	cfg  Config
	port *link.Port

	flows     map[packet.FlowID]*sender
	receivers map[packet.FlowID]*receiver
	nextFlow  int32
	nextPort  uint16
}

// New creates a DCTCP host.
func New(sim *engine.Sim, id packet.NodeID, name string, cfg Config) *Host {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("dctcp %s: %v", name, err))
	}
	h := &Host{
		Name:      name,
		ID:        id,
		sim:       sim,
		cfg:       cfg,
		flows:     make(map[packet.FlowID]*sender),
		receivers: make(map[packet.FlowID]*receiver),
		nextPort:  20000,
	}
	h.port = link.NewPort(sim, name, 0, cfg.LineRate, h)
	return h
}

// Port returns the host's fabric port for wiring.
func (h *Host) Port() *link.Port { return h.port }

// SenderStats describes one DCTCP flow's progress.
type SenderStats struct {
	PacketsSent int64
	BytesAcked  int64
	Cuts        int64
	Timeouts    int64
	Alpha       float64
	Cwnd        float64
	Done        bool
	CompletedAt simtime.Time
}

// sender is one DCTCP flow.
type sender struct {
	host  *Host
	flow  packet.FlowID
	tuple packet.FiveTuple

	cwnd     float64
	ssthresh float64
	alpha    float64

	nextPSN int64
	acked   int64
	endPSN  int64
	size    int64

	windowEnd   int64 // PSN marking the end of the current observation window
	ackedTotal  int64 // ACKs in current window
	ackedMarked int64 // ECE-marked ACKs in current window

	// rto is the pending retransmission timeout and onRTO its
	// continuation, bound once in StartTransfer, so re-arming it on
	// every ACK allocates nothing.
	rto        eventq.Handle
	onRTO      func()
	startedAt  simtime.Time
	onComplete func()

	stats SenderStats
}

// Flow is the public handle to a DCTCP transfer.
type Flow struct{ s *sender }

// Stats returns a snapshot of the flow's state.
func (f *Flow) Stats() SenderStats {
	st := f.s.stats
	st.Alpha = f.s.alpha
	st.Cwnd = f.s.cwnd
	return st
}

// StartTransfer begins sending size bytes to dst, invoking onComplete
// (optional) when fully acknowledged.
func (h *Host) StartTransfer(dst packet.NodeID, size int64, onComplete func()) *Flow {
	id := packet.FlowID(int32(h.ID)<<16 | h.nextFlow | 0x40000000)
	h.nextFlow++
	s := &sender{
		host: h,
		flow: id,
		tuple: packet.FiveTuple{
			Src: h.ID, Dst: dst,
			SrcPort: h.nextPort, DstPort: 5001, Proto: 6,
		},
		cwnd:       h.cfg.InitCwnd,
		ssthresh:   h.cfg.MaxCwnd,
		endPSN:     (size + int64(h.cfg.MTU) - 1) / int64(h.cfg.MTU),
		size:       size,
		startedAt:  h.sim.Now(),
		onComplete: onComplete,
	}
	if !h.cfg.SlowStart {
		s.cwnd = h.cfg.MaxCwnd
		s.ssthresh = h.cfg.MaxCwnd
	}
	s.windowEnd = int64(s.cwnd)
	s.onRTO = s.timeout
	h.nextPort++
	h.flows[id] = s
	s.pump()
	return &Flow{s: s}
}

// pump transmits while the window allows.
func (s *sender) pump() {
	for s.nextPSN < s.endPSN && float64(s.nextPSN-s.acked) < s.cwnd {
		payload := s.host.cfg.MTU
		if rem := s.size - s.nextPSN*int64(s.host.cfg.MTU); rem < int64(payload) {
			payload = int(rem)
		}
		pkt := packet.NewData(s.flow, s.tuple, s.nextPSN, payload, s.nextPSN == s.endPSN-1)
		pkt.SentAt = s.host.sim.Now()
		s.host.port.Enqueue(pkt)
		s.nextPSN++
		s.stats.PacketsSent++
	}
	s.armRTO()
}

func (s *sender) armRTO() {
	if s.acked >= s.endPSN {
		s.host.sim.Cancel(s.rto)
		return
	}
	s.rto = s.host.sim.Rearm(s.rto, s.host.sim.Now().Add(s.host.cfg.RTO), s.onRTO)
}

// timeout is the RTO expiry: go-back-N with a conservative window reset.
func (s *sender) timeout() {
	s.stats.Timeouts++
	s.nextPSN = s.acked
	s.cwnd = s.host.cfg.InitCwnd
	s.pump()
}

// onAck processes a cumulative ACK with its ECN echo.
func (s *sender) onAck(psn int64, ece bool) {
	if psn+1 <= s.acked {
		return
	}
	newly := psn + 1 - s.acked
	s.acked = psn + 1
	s.stats.BytesAcked += newly * int64(s.host.cfg.MTU)
	s.ackedTotal += newly
	if ece {
		s.ackedMarked += newly
	}

	// Window growth per ACK.
	if s.cwnd < s.ssthresh {
		s.cwnd += float64(newly) // slow start
	} else {
		s.cwnd += float64(newly) / s.cwnd // congestion avoidance
	}
	if s.cwnd > s.host.cfg.MaxCwnd {
		s.cwnd = s.host.cfg.MaxCwnd
	}

	// Once per window: fold the marked fraction into alpha and cut if
	// the window saw any marks.
	if s.acked >= s.windowEnd {
		frac := 0.0
		if s.ackedTotal > 0 {
			frac = float64(s.ackedMarked) / float64(s.ackedTotal)
		}
		s.alpha = (1-s.host.cfg.G)*s.alpha + s.host.cfg.G*frac
		if s.ackedMarked > 0 {
			s.cwnd = s.cwnd * (1 - s.alpha/2)
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.ssthresh = s.cwnd
			s.stats.Cuts++
		}
		s.ackedTotal, s.ackedMarked = 0, 0
		s.windowEnd = s.acked + int64(s.cwnd)
	}

	if s.acked >= s.endPSN {
		s.host.sim.Cancel(s.rto)
		if !s.stats.Done {
			s.stats.Done = true
			s.stats.CompletedAt = s.host.sim.Now()
			if s.onComplete != nil {
				s.onComplete()
			}
		}
		return
	}
	s.pump()
}

// receiver acks every packet, echoing CE (exact per-packet feedback).
type receiver struct {
	host     *Host
	expected int64
}

func (r *receiver) onData(p *packet.Packet) {
	if p.PSN == r.expected {
		r.expected++
	}
	// Cumulative ACK of expected-1 with this packet's CE echoed. Out of
	// order packets still produce (duplicate) cumulative ACKs, which the
	// RTO path recovers from; DCTCP runs on a lossless fabric here just
	// like DCQCN.
	ack := packet.NewAck(p.Flow, p.Tuple, r.expected-1)
	ack.ECE = p.CE
	r.host.port.Enqueue(ack)
}

// HandlePacket implements link.Receiver.
func (h *Host) HandlePacket(p *packet.Packet, _ *link.Port) {
	switch p.Type {
	case packet.Data:
		r, ok := h.receivers[p.Flow]
		if !ok {
			r = &receiver{host: h}
			h.receivers[p.Flow] = r
		}
		r.onData(p)
	case packet.Ack:
		if s, ok := h.flows[p.Flow]; ok {
			s.onAck(p.PSN, p.ECE)
		}
	default:
		// CNPs etc. are not part of DCTCP; ignore silently so mixed
		// fabrics don't crash.
	}
}
