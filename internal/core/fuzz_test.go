package core

import (
	"testing"

	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

// FuzzMarkingProbability: the Fig. 5 law must stay a valid, monotone
// probability for arbitrary thresholds and queue lengths.
func FuzzMarkingProbability(f *testing.F) {
	f.Add(int64(5000), int64(200000), 0.01, int64(100000))
	f.Add(int64(40000), int64(40000), 1.0, int64(40001))
	f.Add(int64(0), int64(1), 0.5, int64(-3))
	f.Fuzz(func(t *testing.T, kmin, kmax int64, pmax float64, q int64) {
		p := DefaultParams()
		p.KMin, p.KMax, p.PMax = kmin, kmax, pmax
		if p.Validate() != nil {
			t.Skip()
		}
		v := p.MarkingProbability(q)
		if v < 0 || v > 1 {
			t.Fatalf("p(%d) = %g out of [0,1]", q, v)
		}
		if v2 := p.MarkingProbability(q + 1); v2 < v {
			t.Fatalf("marking law not monotone at %d: %g then %g", q, v, v2)
		}
	})
}

// FuzzRPEventSequences: arbitrary interleavings of CNPs, byte-counter
// credit and timer advancement must keep the RP's invariants: rate within
// [MinRate, LineRate], alpha within [0,1], RT >= RC while active.
func FuzzRPEventSequences(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 1, 1, 0})
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			t.Skip()
		}
		clock := &simtest.Clock{}
		p := DefaultParams()
		rp := NewRP(p, clock)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				rp.OnCNP()
			case 1:
				rp.OnBytesSent(p.ByteCounter / 2)
			case 2:
				clock.Advance(p.RateTimer)
			}
			if rp.Rate() < p.MinRate || rp.Rate() > p.LineRate {
				t.Fatalf("rate %v out of bounds after op %d", rp.Rate(), op%3)
			}
			if a := rp.Alpha(); a < 0 || a > 1 {
				t.Fatalf("alpha %g out of bounds", a)
			}
			if rp.Active() && rp.TargetRate() < rp.Rate()-simtime.Rate(1) {
				t.Fatalf("target %v below current %v", rp.TargetRate(), rp.Rate())
			}
		}
	})
}
