package packet

import (
	"testing"
	"testing/quick"
)

func TestNewData(t *testing.T) {
	ft := FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
	p := NewData(7, ft, 42, MTU, true)
	if p.Type != Data || p.Flow != 7 || p.PSN != 42 {
		t.Fatalf("bad data packet: %+v", p)
	}
	if p.Size != MTU+HeaderBytes {
		t.Fatalf("size %d, want %d", p.Size, MTU+HeaderBytes)
	}
	if !p.ECNCapable || p.CE {
		t.Fatal("data packets must be ECT and unmarked")
	}
	if p.Priority != PrioData {
		t.Fatalf("priority %d, want %d", p.Priority, PrioData)
	}
	if !p.Last {
		t.Fatal("last flag lost")
	}
}

func TestControlPacketsReverseTuple(t *testing.T) {
	ft := FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
	for _, p := range []*Packet{NewAck(1, ft, 5), NewNack(1, ft, 5), NewCNP(1, ft)} {
		if p.Tuple.Src != ft.Dst || p.Tuple.Dst != ft.Src {
			t.Errorf("%v: tuple not reversed: %+v", p.Type, p.Tuple)
		}
		if p.Size != ControlBytes {
			t.Errorf("%v: size %d, want %d", p.Type, p.Size, ControlBytes)
		}
		if p.Priority != PrioControl {
			t.Errorf("%v: priority %d, want %d", p.Type, p.Priority, PrioControl)
		}
	}
}

func TestPFCFrames(t *testing.T) {
	pause := NewPFC(3, true)
	if pause.Type != Pause || pause.PausePrio != 3 || !pause.PauseOn {
		t.Fatalf("bad pause frame: %+v", pause)
	}
	resume := NewPFC(3, false)
	if resume.Type != Resume || resume.PauseOn {
		t.Fatalf("bad resume frame: %+v", resume)
	}
	if !pause.IsControl() || !resume.IsControl() {
		t.Fatal("PFC frames must be control")
	}
	if NewData(1, FiveTuple{}, 0, 100, false).IsControl() {
		t.Fatal("data is not control")
	}
}

func TestReverseIsInvolution(t *testing.T) {
	f := func(src, dst int32, sp, dp uint16) bool {
		ft := FiveTuple{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sp, DstPort: dp, Proto: 17}
		return ft.Reverse().Reverse() == ft
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashProperties(t *testing.T) {
	a := FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
	b := a
	b.SrcPort = 1001
	if a.Hash(0) == b.Hash(0) {
		t.Error("different ports should (almost surely) hash differently")
	}
	if a.Hash(1) == a.Hash(2) {
		t.Error("different seeds should (almost surely) hash differently")
	}
	if a.Hash(5) != a.Hash(5) {
		t.Error("hash must be deterministic")
	}
}

// bytewiseFNV is the reference ECMP hash: FNV-1a, from the offset basis
// xored with seed, over every byte of four zero-extended 8-byte words,
// low byte first. Hash skips the bytes that are always zero and must
// agree with it everywhere.
func bytewiseFNV(ft FiveTuple, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for _, v := range []uint64{
		uint64(uint32(ft.Src)),
		uint64(uint32(ft.Dst)),
		uint64(ft.SrcPort)<<16 | uint64(ft.DstPort),
		uint64(ft.Proto),
	} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

func TestHashMatchesBytewiseFNV(t *testing.T) {
	f := func(src, dst int32, sp, dp uint16, proto uint8, seed uint64) bool {
		ft := FiveTuple{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sp, DstPort: dp, Proto: proto}
		return ft.Hash(seed) == bytewiseFNV(ft, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100000}); err != nil {
		t.Fatal(err)
	}
	for _, ft := range []FiveTuple{
		{},
		{Src: -1, Dst: -1, SrcPort: 0xffff, DstPort: 0xffff, Proto: 0xff},
		{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17},
	} {
		for _, seed := range []uint64{0, 1, 1<<64 - 1} {
			if got, want := ft.Hash(seed), bytewiseFNV(ft, seed); got != want {
				t.Errorf("%+v seed %d: hash %#x, want %#x", ft, seed, got, want)
			}
		}
	}
}

var hashSink uint64

func BenchmarkHash(b *testing.B) {
	ft := FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
	for i := 0; i < b.N; i++ {
		ft.SrcPort = uint16(i)
		hashSink += ft.Hash(uint64(i))
	}
}

// Hash should spread flows roughly evenly over a small number of uplinks;
// this is load-bearing for the ECMP experiments.
func TestHashSpread(t *testing.T) {
	const buckets = 4
	var count [buckets]int
	n := 4000
	for i := 0; i < n; i++ {
		ft := FiveTuple{Src: 1, Dst: 2, SrcPort: uint16(i), DstPort: 4791, Proto: 17}
		count[ft.Hash(99)%buckets]++
	}
	for b, c := range count {
		if c < n/buckets*7/10 || c > n/buckets*13/10 {
			t.Errorf("bucket %d has %d of %d flows; poor spread %v", b, c, n, count)
		}
	}
}

func TestStrings(t *testing.T) {
	ft := FiveTuple{Src: 1, Dst: 2}
	for _, p := range []*Packet{
		NewData(1, ft, 9, 100, false),
		NewAck(1, ft, 9),
		NewNack(1, ft, 9),
		NewCNP(1, ft),
		NewPFC(2, true),
		NewPFC(2, false),
	} {
		if p.String() == "" {
			t.Errorf("empty string for %v", p.Type)
		}
	}
	if Type(200).String() == "" {
		t.Error("unknown type should still render")
	}
}
