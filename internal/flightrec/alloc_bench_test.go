package flightrec

// Allocation-budget benchmarks for the hot-path contract (DESIGN §12):
// ns/op and allocs/op for the four budgeted event-loop paths — event
// queue push/pop, link transmit, switch forward, recorder append.
// `make bench-json` runs them via TestAllocBudgetArtifact and writes
// BENCH_7.json; the hard budgets themselves are enforced by the
// per-package TestAllocBudget* tests (non-race builds).

import (
	"encoding/json"
	"os"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/eventq"
	"dcqcn/internal/fabric"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// BenchmarkEventqPushPop measures the steady-state scheduling cycle:
// one Push and one Pop at stable queue depth.
func BenchmarkEventqPushPop(b *testing.B) {
	b.ReportAllocs()
	var q eventq.Queue
	fn := func() {}
	for i := 0; i < 512; i++ {
		q.Push(simtime.Time(i), fn)
	}
	base := simtime.Time(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(base.Add(simtime.Duration(i)), fn)
		q.Pop()
	}
}

type benchSink struct{ got int }

func (s *benchSink) HandlePacket(p *packet.Packet, port *link.Port) { s.got++ }

// BenchmarkLinkTransmit measures one complete frame transmission:
// enqueue, serialize, propagate, deliver.
func BenchmarkLinkTransmit(b *testing.B) {
	b.ReportAllocs()
	sim := engine.New(1)
	msim := sim.Model()
	rate := 40 * simtime.Gbps
	a := link.NewPort(msim, "a", 0, rate, &benchSink{})
	dst := link.NewPort(msim, "b", 1, rate, &benchSink{})
	link.Connect(msim, a, dst, simtime.Microsecond)
	pkt := &packet.Packet{Type: packet.Data, Size: 1000}
	a.Enqueue(pkt)
	sim.RunAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Enqueue(pkt)
		sim.RunAll()
	}
}

// BenchmarkSwitchForward measures the forwarding pipeline end to end:
// admission, PFC check, ECMP route, egress, departure accounting.
func BenchmarkSwitchForward(b *testing.B) {
	b.ReportAllocs()
	sim := engine.New(1)
	msim := sim.Model()
	cfg := fabric.DefaultConfig()
	sw := fabric.New(msim, 1, "S", 2, cfg)
	peer := link.NewPort(msim, "peer", 0, cfg.Spec.LineRate, &benchSink{})
	link.Connect(msim, sw.Port(1), peer, simtime.Microsecond)
	const routeDst = packet.NodeID(9)
	sw.AddRoute(routeDst, 1)
	pkt := &packet.Packet{
		Type:     packet.Data,
		Size:     1000,
		Tuple:    packet.FiveTuple{Src: 2, Dst: routeDst, SrcPort: 7, DstPort: 8},
		Priority: 3,
	}
	sw.HandlePacket(pkt, sw.Port(0))
	sim.RunAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.HandlePacket(pkt, sw.Port(0))
		sim.RunAll()
	}
}

// BenchmarkRecorderAppend measures the flight recorder's encode-and-
// append path for one event.
func BenchmarkRecorderAppend(b *testing.B) {
	b.ReportAllocs()
	sim := engine.New(1)
	r := newRecorder(&topology.Network{Sim: sim}, Config{})
	id := r.intern("S0.p1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.record(KindEnqueue, id, packet.Data, 7, int64(i), 1000, 3, 0, 0)
	}
}

// TestAllocBudgetArtifact runs the four budgeted paths under
// testing.Benchmark and writes ns/op + allocs/op next to each path's
// pinned budget as JSON to the path in $BENCH_JSON (skipped when unset
// — this is the `make bench-json` entry point, not part of the normal
// suite).
func TestAllocBudgetArtifact(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to write the benchmark artifact")
	}
	type entry struct {
		Path        string  `json:"path"`
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		BudgetNote  string  `json:"budget"`
		BudgetMax   float64 `json:"budget_allocs_per_op"`
	}
	cases := []struct {
		path   string
		bench  func(*testing.B)
		note   string
		budget float64
	}{
		{"eventq-push-pop", BenchmarkEventqPushPop, "none: Event headers are pooled", 0},
		{"link-transmit", BenchmarkLinkTransmit, "none: pooled events, pre-bound arrival continuation", 0},
		{"switch-forward", BenchmarkSwitchForward, "none: forwarding adds nothing to the link path", 0},
		{"flightrec-append", BenchmarkRecorderAppend, "amortized chunk seal only", 0.01},
	}
	var entries []entry
	for _, c := range cases {
		res := testing.Benchmark(c.bench)
		entries = append(entries, entry{
			Path:        c.path,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			BudgetNote:  c.note,
			BudgetMax:   c.budget,
		})
		t.Logf("%s: %d ns/op, %d allocs/op (budget %.2f)", c.path, res.NsPerOp(), res.AllocsPerOp(), c.budget)
	}
	art := struct {
		Benchmark string  `json:"benchmark"`
		Entries   []entry `json:"entries"`
	}{Benchmark: "hot-path-alloc-budgets", Entries: entries}

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
