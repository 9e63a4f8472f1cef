package trace

import (
	"strings"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/simtime"
)

func TestRecorderSamples(t *testing.T) {
	sim := engine.New(1)
	r := NewRecorder(sim, simtime.Duration(simtime.Millisecond))
	x := 0.0
	r.Gauge("x", func() float64 { x++; return x })
	r.Gauge("const", func() float64 { return 7 })
	r.Start()
	sim.Run(simtime.Time(10 * simtime.Millisecond))
	r.Stop()
	if got := r.Series("x").N(); got != 10 {
		t.Fatalf("sampled %d points, want 10", got)
	}
	if r.Series("x").V[9] != 10 {
		t.Fatalf("last x sample %g", r.Series("x").V[9])
	}
	if r.Series("const").V[0] != 7 {
		t.Fatal("const gauge wrong")
	}
	if r.Series("unknown") != nil {
		t.Fatal("unknown series should be nil")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "const" {
		t.Fatalf("names %v", names)
	}
	// Stopped: no more samples.
	sim.Run(simtime.Time(20 * simtime.Millisecond))
	if r.Series("x").N() != 10 {
		t.Fatal("recorder sampled after Stop")
	}
}

func TestRecorderRestart(t *testing.T) {
	sim := engine.New(1)
	r := NewRecorder(sim, simtime.Duration(simtime.Millisecond))
	r.Gauge("v", func() float64 { return 1 })
	r.Start()
	r.Start() // idempotent
	sim.Run(simtime.Time(3 * simtime.Millisecond))
	r.Stop()
	r.Stop() // idempotent
	r.Start()
	sim.Run(simtime.Time(6 * simtime.Millisecond))
	r.Stop()
	if got := r.Series("v").N(); got != 6 {
		t.Fatalf("restart: %d samples, want 6", got)
	}
}

func TestWriteCSV(t *testing.T) {
	sim := engine.New(1)
	r := NewRecorder(sim, simtime.Duration(simtime.Millisecond))
	i := 0.0
	r.Gauge("a", func() float64 { i++; return i })
	r.Gauge("b", func() float64 { return i * 2 })
	r.Start()
	sim.Run(simtime.Time(3 * simtime.Millisecond))
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3", len(lines))
	}
	if lines[0] != "time_s,a,b" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",1,2") {
		t.Fatalf("row 1 %q", lines[1])
	}
}

func TestGaugeAfterStartPanics(t *testing.T) {
	sim := engine.New(1)
	r := NewRecorder(sim, simtime.Duration(simtime.Millisecond))
	r.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge after Start did not panic")
		}
	}()
	r.Gauge("late", func() float64 { return 0 })
}
