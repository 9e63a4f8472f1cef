package packet

import (
	"testing"
	"unsafe"
)

// TestPacketSize pins the field order: 96 bytes is the largest size in
// Go's 96-byte allocation class, so every packet stays one 96-byte
// object. Without the widest-first order the struct pads past 96 bytes
// and moves to the 112-byte class.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 96 {
		t.Fatalf("Packet is %d bytes, want at most 96 (the 96-byte size class)", got)
	}
}

func TestPoolReusesReleasedPacket(t *testing.T) {
	var pl Pool
	ft := FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
	d := pl.NewData(7, ft, 42, MTU, true)
	d.CE = true
	d.InPort = 3
	d.Release()
	a := pl.NewAck(7, ft, 41)
	if a != d {
		t.Fatal("the released packet was not reused")
	}
	// The constructor rebuilds every field: nothing of the data packet
	// survives into the ACK.
	want := NewAck(7, ft, 41)
	want.pool = &pl
	if *a != *want {
		t.Fatalf("reused packet %+v, want %+v", *a, *want)
	}
	if b := pl.NewCNP(7, ft); b == a {
		t.Fatal("a packet in use was handed out again")
	}
}

func TestReleaseWithoutPoolIsNoop(t *testing.T) {
	p := NewData(1, FiveTuple{}, 0, 100, false)
	p.Release()
	p.Release()
	if p.Type != Data || p.Size != 100+HeaderBytes {
		t.Fatalf("Release changed a packet without a pool: %+v", *p)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.NewPFC(3, true)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	p.Release()
}

// TestPoolFreeListBounded releases more packets than the cap at once:
// the free list keeps poolCap of them, never more, and hands those back
// before allocating again.
func TestPoolFreeListBounded(t *testing.T) {
	var pl Pool
	const n = 3 * poolCap
	held := make([]*Packet, n)
	for i := range held {
		held[i] = pl.NewPFC(uint8(i%NumPriorities), true)
	}
	kept := map[*Packet]bool{}
	for i, p := range held {
		p.Release()
		if len(pl.free) > poolCap || cap(pl.free) != poolCap {
			t.Fatalf("free list len %d cap %d after %d releases, cap is %d", len(pl.free), cap(pl.free), i+1, poolCap)
		}
		if i < poolCap {
			kept[p] = true
		}
	}
	for i := 0; i < poolCap; i++ {
		if p := pl.NewPFC(0, false); !kept[p] {
			t.Fatalf("take %d: got a packet that was not on the free list", i)
		}
	}
	if len(pl.free) != 0 {
		t.Fatalf("%d packets left on the free list", len(pl.free))
	}
}
