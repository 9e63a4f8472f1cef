package nic

import (
	"math"
	"math/rand"
	"testing"

	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// TestPacingGapMatchesTxTime checks a flow's pacing-gap memo against
// Rate.TxTime. First, at the default line rate and at random rates, for
// every frame size up to MaxFrameBytes, alternating between the two ends
// of the range so that almost every call misses. Then through random
// rate changes, as the controller makes them: each step keeps the rate,
// moves it by one ulp, or draws a new one, and keeps the size or draws a
// new one, so a memo that ignored either key would return a stale gap.
func TestPacingGapMatchesTxTime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Log-uniform over 10 Mb/s (the RP's floor) .. 40 Gb/s.
	randomRate := func() simtime.Rate {
		return simtime.Rate(math.Pow(10, 7+math.Log10(4000)*rng.Float64()))
	}
	check := func(fs *flowState, rate simtime.Rate, size int) {
		t.Helper()
		if got, want := fs.pacingGap(rate, size), rate.TxTime(size); got != want {
			t.Fatalf("rate %v (bits %#x), size %d: memo gave %d ps, TxTime %d", rate, math.Float64bits(float64(rate)), size, got, want)
		}
	}

	rates := []simtime.Rate{DefaultConfig().LineRate}
	for i := 0; i < 8; i++ {
		rates = append(rates, randomRate())
	}
	for _, rate := range rates {
		fs := &flowState{}
		for i := 0; i <= packet.MaxFrameBytes; i++ {
			size := i / 2
			if i%2 == 1 {
				size = packet.MaxFrameBytes - i/2
			}
			check(fs, rate, size)
			check(fs, rate, size)
		}
	}

	fs := &flowState{}
	rate, size := DefaultConfig().LineRate, packet.MaxFrameBytes
	moved := 0
	for step := 0; step < 100000; step++ {
		switch rng.Intn(3) {
		case 1:
			rate = simtime.Rate(math.Nextafter(float64(rate), math.Inf(2*rng.Intn(2)-1)))
		case 2:
			rate = randomRate()
		}
		if rng.Intn(2) == 0 {
			size = packet.ControlBytes + rng.Intn(packet.MaxFrameBytes-packet.ControlBytes+1)
		}
		before := fs.gap
		check(fs, rate, size)
		if fs.gap != before {
			moved++
		}
	}
	if moved < 10000 {
		t.Fatalf("the gap changed on %d of 100,000 steps: the walk barely exercised the miss path", moved)
	}
}
