package core

import (
	"testing"

	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

func newNPUnderTest() (*NP, *simtest.Clock, *int) {
	clock := &simtest.Clock{}
	sent := 0
	np := NewNP(DefaultParams(), clock, func() { sent++ })
	return np, clock, &sent
}

func TestNPFirstMarkImmediate(t *testing.T) {
	np, _, sent := newNPUnderTest()
	np.OnPacket(false)
	if *sent != 0 {
		t.Fatal("CNP sent for unmarked packet")
	}
	np.OnPacket(true)
	if *sent != 1 {
		t.Fatalf("first marked packet: sent %d CNPs, want 1", *sent)
	}
	if !np.PendingWindow() {
		t.Fatal("window not opened after CNP")
	}
}

func TestNPRateLimiting(t *testing.T) {
	np, clock, sent := newNPUnderTest()
	np.OnPacket(true) // CNP #1, opens 50us window
	// A storm of marked packets inside the window yields no extra CNPs...
	for i := 0; i < 100; i++ {
		clock.Advance(100 * simtime.Nanosecond)
		np.OnPacket(true)
	}
	if *sent != 1 {
		t.Fatalf("sent %d CNPs inside window, want 1", *sent)
	}
	// ...but exactly one more when the window closes.
	clock.Advance(50 * simtime.Microsecond)
	if *sent != 2 {
		t.Fatalf("sent %d CNPs after window, want 2", *sent)
	}
}

func TestNPQuietWindowResets(t *testing.T) {
	np, clock, sent := newNPUnderTest()
	np.OnPacket(true)
	// Unmarked traffic only during the window: no CNP at expiry.
	for i := 0; i < 10; i++ {
		clock.Advance(simtime.Microsecond)
		np.OnPacket(false)
	}
	clock.Advance(60 * simtime.Microsecond)
	if *sent != 1 {
		t.Fatalf("sent %d CNPs, want 1 (quiet window)", *sent)
	}
	if np.PendingWindow() {
		t.Fatal("machine should be idle after a quiet window")
	}
	// Next marked packet is again immediate.
	np.OnPacket(true)
	if *sent != 2 {
		t.Fatalf("sent %d, want immediate CNP after idle", *sent)
	}
}

func TestNPSteadyMarkingRate(t *testing.T) {
	// Under persistent marking, exactly one CNP per interval.
	np, clock, sent := newNPUnderTest()
	interval := np.Interval()
	for i := 0; i < 1000; i++ {
		np.OnPacket(true)
		clock.Advance(interval / 10)
	}
	// 1000 packets over 100 intervals: expect ~101 CNPs (first + one per
	// full window).
	if *sent < 99 || *sent > 102 {
		t.Fatalf("sent %d CNPs over 100 intervals, want ~100", *sent)
	}
	if np.MarkedPackets != 1000 {
		t.Fatalf("marked counter %d, want 1000", np.MarkedPackets)
	}
	if np.CNPsSent != int64(*sent) {
		t.Fatalf("CNPsSent %d != sent %d", np.CNPsSent, *sent)
	}
}

func TestNPStop(t *testing.T) {
	np, clock, sent := newNPUnderTest()
	np.OnPacket(true)
	np.OnPacket(true) // pending mark inside window
	np.Stop()
	clock.Advance(simtime.Second)
	if *sent != 1 {
		t.Fatalf("CNP emitted after Stop: %d", *sent)
	}
	if clock.Pending() != 0 {
		t.Fatalf("%d timers still pending after Stop", clock.Pending())
	}
}
