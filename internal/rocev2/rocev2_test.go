package rocev2

import (
	"testing"

	"dcqcn/internal/packet"
	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

func testTuple() packet.FiveTuple {
	return packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
}

func newSender(cfg Config) (*Sender, *simtest.Clock) {
	clock := &simtest.Clock{}
	s := NewSender(1, testTuple(), cfg, clock, FixedRate(40*simtime.Gbps))
	return s, clock
}

func TestSegmentation(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newSender(cfg)
	s.PostMessage(3*int64(cfg.MTU)+100, nil) // 4 packets: 3 full + 100B
	var pkts []*packet.Packet
	for s.CanSend() {
		pkts = append(pkts, s.BuildNext())
	}
	if len(pkts) != 4 {
		t.Fatalf("built %d packets, want 4", len(pkts))
	}
	for i, p := range pkts[:3] {
		if p.Payload() != cfg.MTU {
			t.Errorf("packet %d payload %d, want MTU", i, p.Payload())
		}
		if p.Last {
			t.Errorf("packet %d wrongly marked Last", i)
		}
		if p.PSN != int64(i) {
			t.Errorf("packet %d PSN %d", i, p.PSN)
		}
	}
	last := pkts[3]
	if last.Payload() != 100 || !last.Last || last.PSN != 3 {
		t.Fatalf("bad final segment: payload=%d last=%v psn=%d", last.Payload(), last.Last, last.PSN)
	}
}

func TestCompletionOnFullAck(t *testing.T) {
	cfg := DefaultConfig()
	s, clock := newSender(cfg)
	var done []Completion
	s.PostMessage(2*int64(cfg.MTU), func(c Completion) { done = append(done, c) })
	s.BuildNext()
	s.BuildNext()
	clock.Advance(10 * simtime.Microsecond)
	s.OnAck(0)
	if len(done) != 0 {
		t.Fatal("completed before last PSN acked")
	}
	s.OnAck(1)
	if len(done) != 1 {
		t.Fatal("not completed after full ack")
	}
	if done[0].Size != 2*int64(cfg.MTU) {
		t.Fatalf("completion size %d", done[0].Size)
	}
	if done[0].Duration() != 10*simtime.Microsecond {
		t.Fatalf("FCT %v, want 10us", done[0].Duration())
	}
	if s.Pending() {
		t.Fatal("still pending after full ack")
	}
	if s.Stats.Completions != 1 || s.Stats.PayloadAcked != 2*int64(cfg.MTU) {
		t.Fatalf("stats: %+v", s.Stats)
	}
}

func TestWindowBlocksAndAckUnblocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowPackets = 3
	s, _ := newSender(cfg)
	woken := 0
	s.SetWakeFunc(func() { woken++ })
	s.PostMessage(10*int64(cfg.MTU), nil)
	if woken != 1 {
		t.Fatal("post did not wake pacer")
	}
	for i := 0; i < 3; i++ {
		s.BuildNext()
	}
	if s.CanSend() {
		t.Fatal("window should be exhausted after 3 packets")
	}
	s.OnAck(0)
	if !s.CanSend() {
		t.Fatal("ack did not reopen window")
	}
	if woken != 2 {
		t.Fatalf("wake count %d, want 2 (post + unblock)", woken)
	}
}

func TestGoBackNOnNack(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newSender(cfg)
	s.PostMessage(10*int64(cfg.MTU), nil)
	for i := 0; i < 6; i++ {
		s.BuildNext()
	}
	// Receiver saw 0,1,2 then a gap: NAK expected=3.
	s.OnNack(3)
	p := s.BuildNext()
	if p.PSN != 3 {
		t.Fatalf("after NACK(3) sender sent PSN %d, want 3", p.PSN)
	}
	if s.Stats.Retransmits != 1 {
		t.Fatalf("retransmit count %d, want 1", s.Stats.Retransmits)
	}
	if s.Stats.NacksReceived != 1 {
		t.Fatalf("nack count %d", s.Stats.NacksReceived)
	}
	// PSNs 0..2 were implicitly acked by the NAK.
	if s.InFlight() != 3 { // 3,4,5 outstanding (3 rebuilt)
		t.Fatalf("inflight %d, want 3", s.InFlight())
	}
}

func TestRTORewindsAndRetries(t *testing.T) {
	cfg := DefaultConfig()
	s, clock := newSender(cfg)
	s.PostMessage(4*int64(cfg.MTU), nil)
	for s.CanSend() {
		s.BuildNext()
	}
	// Silence: all packets (or all ACKs) lost.
	clock.Advance(cfg.RTO + simtime.Microsecond)
	if s.Stats.Timeouts != 1 {
		t.Fatalf("timeouts %d, want 1", s.Stats.Timeouts)
	}
	p := s.BuildNext()
	if p.PSN != 0 {
		t.Fatalf("RTO rewind sent PSN %d, want 0", p.PSN)
	}
	// Repeated silence keeps retrying.
	clock.Advance(3*cfg.RTO + simtime.Microsecond)
	if s.Stats.Timeouts < 2 {
		t.Fatalf("timeouts %d, want >= 2", s.Stats.Timeouts)
	}
}

func TestRTOCancelledWhenIdle(t *testing.T) {
	cfg := DefaultConfig()
	s, clock := newSender(cfg)
	s.PostMessage(int64(cfg.MTU), nil)
	s.BuildNext()
	s.OnAck(0)
	clock.Advance(10 * cfg.RTO)
	if s.Stats.Timeouts != 0 {
		t.Fatalf("spurious timeouts after completion: %d", s.Stats.Timeouts)
	}
	if clock.Pending() != 0 {
		t.Fatalf("%d timers leaked", clock.Pending())
	}
}

func TestStaleAckIgnored(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newSender(cfg)
	s.PostMessage(5*int64(cfg.MTU), nil)
	for s.CanSend() {
		s.BuildNext()
	}
	s.OnAck(3)
	s.OnAck(1) // stale
	if s.InFlight() != 1 {
		t.Fatalf("inflight %d after stale ack, want 1", s.InFlight())
	}
}

func TestMultipleMessagesShareQP(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newSender(cfg)
	var order []int64
	s.PostMessage(int64(cfg.MTU), func(c Completion) { order = append(order, c.Size) })
	s.PostMessage(2*int64(cfg.MTU), func(c Completion) { order = append(order, c.Size) })
	n := 0
	for s.CanSend() {
		p := s.BuildNext()
		// Last flags at PSN 0 (msg 1) and PSN 2 (msg 2).
		if (p.PSN == 0 || p.PSN == 2) != p.Last {
			t.Errorf("PSN %d Last=%v wrong", p.PSN, p.Last)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("sent %d packets, want 3", n)
	}
	s.OnAck(2)
	if len(order) != 2 || order[0] != int64(cfg.MTU) || order[1] != 2*int64(cfg.MTU) {
		t.Fatalf("completion order %v", order)
	}
}

// --- Receiver ---

func collectReceiver(cfg Config) (*Receiver, *[]*packet.Packet) {
	var out []*packet.Packet
	r := NewReceiver(1, testTuple(), cfg, func(p *packet.Packet) { out = append(out, p) })
	return r, &out
}

func data(psn int64, last bool) *packet.Packet {
	return packet.NewData(1, testTuple(), psn, packet.MTU, last)
}

func TestReceiverInOrderAckCoalescing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AckEvery = 4
	r, out := collectReceiver(cfg)
	for i := int64(0); i < 8; i++ {
		r.OnData(data(i, false))
	}
	if len(*out) != 2 {
		t.Fatalf("sent %d ACKs for 8 packets with AckEvery=4, want 2", len(*out))
	}
	if (*out)[0].Type != packet.Ack || (*out)[0].PSN != 3 {
		t.Fatalf("first ACK %v psn=%d", (*out)[0].Type, (*out)[0].PSN)
	}
	if (*out)[1].PSN != 7 {
		t.Fatalf("second ACK psn=%d", (*out)[1].PSN)
	}
}

func TestReceiverAcksLastImmediately(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AckEvery = 100
	r, out := collectReceiver(cfg)
	r.OnData(data(0, false))
	r.OnData(data(1, true)) // message boundary
	if len(*out) != 1 || (*out)[0].PSN != 1 {
		t.Fatalf("Last packet not acked immediately: %d acks", len(*out))
	}
	if r.Stats.MessagesDone != 1 {
		t.Fatalf("messages done %d", r.Stats.MessagesDone)
	}
}

func TestReceiverNacksGapOnce(t *testing.T) {
	cfg := DefaultConfig()
	r, out := collectReceiver(cfg)
	r.OnData(data(0, false))
	r.OnData(data(2, false)) // gap: 1 missing
	r.OnData(data(3, false))
	r.OnData(data(4, false))
	nacks := 0
	for _, p := range *out {
		if p.Type == packet.Nack {
			nacks++
			if p.PSN != 1 {
				t.Fatalf("NACK expected=%d, want 1", p.PSN)
			}
		}
	}
	if nacks != 1 {
		t.Fatalf("sent %d NACKs for one gap episode, want 1", nacks)
	}
	if r.Stats.PacketsOOO != 3 {
		t.Fatalf("OOO count %d, want 3", r.Stats.PacketsOOO)
	}
	// Recovery: the retransmitted PSN 1 re-opens NACK eligibility.
	r.OnData(data(1, false))
	r.OnData(data(5, false))
	r.OnData(data(7, false)) // new gap
	nacks = 0
	for _, p := range *out {
		if p.Type == packet.Nack {
			nacks++
		}
	}
	if nacks != 2 {
		t.Fatalf("second gap not NACKed: %d total", nacks)
	}
}

func TestReceiverReacksDuplicates(t *testing.T) {
	cfg := DefaultConfig()
	r, out := collectReceiver(cfg)
	for i := int64(0); i < 3; i++ {
		r.OnData(data(i, false))
	}
	before := len(*out)
	r.OnData(data(0, false)) // duplicate after go-back-N
	if len(*out) != before+1 {
		t.Fatal("duplicate did not trigger re-ACK")
	}
	last := (*out)[len(*out)-1]
	if last.Type != packet.Ack || last.PSN != 2 {
		t.Fatalf("re-ACK %v psn=%d, want ACK 2", last.Type, last.PSN)
	}
}

// End-to-end loopback: wire sender and receiver directly and push a large
// message through with random loss, verifying goodput integrity.
func TestLossyLoopbackIntegrity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowPackets = 16
	cfg.RTO = 100 * simtime.Microsecond
	clock := &simtest.Clock{}
	var s *Sender
	r := NewReceiver(1, testTuple(), cfg, func(p *packet.Packet) {
		switch p.Type {
		case packet.Ack:
			s.OnAck(p.PSN)
		case packet.Nack:
			s.OnNack(p.PSN)
		}
	})
	done := false
	s = NewSender(1, testTuple(), cfg, clock, FixedRate(40*simtime.Gbps))
	const msgSize = 200 * int64(packet.MTU)
	s.PostMessage(msgSize, func(Completion) { done = true })
	drop := 0
	for iter := 0; iter < 100000 && !done; iter++ {
		for s.CanSend() {
			p := s.BuildNext()
			// Deterministic loss pattern: drop every 13th packet.
			drop++
			if drop%13 == 0 {
				continue
			}
			r.OnData(p)
		}
		clock.Advance(cfg.RTO + simtime.Microsecond)
	}
	if !done {
		t.Fatal("transfer never completed under loss")
	}
	if r.Stats.BytesDelivered != msgSize {
		t.Fatalf("delivered %d bytes, want %d", r.Stats.BytesDelivered, msgSize)
	}
	if s.Stats.Retransmits == 0 {
		t.Fatal("loss pattern should have caused retransmissions")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MTU = 0 },
		func(c *Config) { c.MTU = packet.MTU + 1 },
		func(c *Config) { c.AckEvery = 0 },
		func(c *Config) { c.WindowPackets = 0 },
		func(c *Config) { c.RTO = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d passed validation", i)
		}
	}
}

func TestFixedRateController(t *testing.T) {
	f := FixedRate(40 * simtime.Gbps)
	if f.Rate() != 40*simtime.Gbps {
		t.Fatal("fixed rate wrong")
	}
	f.OnCNP() // must not panic or change anything
	f.OnBytesSent(1 << 30)
	f.Stop()
	if f.Rate() != 40*simtime.Gbps {
		t.Fatal("fixed rate changed")
	}
}

// TestStopLatchesTimers pins the teardown contract: Stop cancels the RTO
// and latches the sender so late fabric feedback — ACKs and NAKs still
// in flight when the QP is torn down — can neither re-arm timers nor
// wake the pacer. This is the unit-level half of the mid-recovery close
// regression (the NIC-level half closes a flow during a NACK storm and
// asserts the event queue drains).
func TestStopLatchesTimers(t *testing.T) {
	cfg := DefaultConfig()
	s, clock := newSender(cfg)
	s.PostMessage(8*int64(cfg.MTU), nil)
	for i := 0; i < 4; i++ {
		s.BuildNext()
	}
	if clock.Pending() == 0 {
		t.Fatal("sending data armed no RTO")
	}
	s.Stop()
	if n := clock.Pending(); n != 0 {
		t.Fatalf("Stop left %d timers armed", n)
	}

	// Late feedback after teardown: a NACK mid-recovery and a partial ACK.
	woke := false
	s.SetWakeFunc(func() { woke = true })
	s.OnNack(2)
	s.OnAck(3)
	if n := clock.Pending(); n != 0 {
		t.Fatalf("late feedback re-armed %d timers after Stop", n)
	}
	if woke {
		t.Fatal("late feedback woke the pacer after Stop")
	}

	// Nothing latent: advancing far past the RTO fires nothing.
	before := s.Stats.Timeouts
	clock.Advance(10 * cfg.RTO)
	if s.Stats.Timeouts != before {
		t.Fatalf("timeouts accrued after Stop: %d -> %d", before, s.Stats.Timeouts)
	}
}
