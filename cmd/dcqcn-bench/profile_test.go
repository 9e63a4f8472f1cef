package main

import (
	"bytes"
	"testing"
)

func TestCharge(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// math under the fluid law is the fluid layer's work.
		{[]string{"math.Exp", "dcqcn/internal/fluid.Law.Step", "dcqcn/internal/hybrid.(*Substrate).tick", "dcqcn/internal/engine.(*Sim).RunLocal"}, "fluid"},
		// An allocation is runtime GC work, whoever asked for it.
		{[]string{"runtime.mallocgc", "runtime.newobject", "dcqcn/internal/eventq.(*Queue).PushKeyed"}, "runtime_gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "dcqcn/internal/packet.NewData"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		// Runtime helpers other than allocation belong to their caller.
		{[]string{"runtime.mapaccess2_fast64", "dcqcn/internal/fabric.(*Switch).forward"}, "fabric"},
		// Helper packages pass the sample out to the layer that called them.
		{[]string{"dcqcn/internal/simtime.Rate.TxTime", "dcqcn/internal/link.(*Port).kick"}, "link"},
		{[]string{"dcqcn/internal/flightrec.(*Recorder).record", "dcqcn/internal/hooks.Chain[...].func1", "dcqcn/internal/link.(*Port).Enqueue"}, "flightrec"},
		{[]string{"dcqcn/internal/workload.SizeDist.Sample", "main.injectBenchmark.func1", "dcqcn/internal/rocev2.(*Sender).OnAck"}, "bench"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "runtime_other"},
	}
	for _, c := range cases {
		if got := charge(c.stack); got != c.want {
			t.Errorf("charge(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestSharesOfCapturedProfile charges a real profile of a few reps and
// checks every sample lands in a declared layer.
func TestSharesOfCapturedProfile(t *testing.T) {
	w := tinyWorkloads()[0]
	s, sh := &series{w: &w}, &shares{}
	for i := 0; i < 50 && sh.samples < 5; i++ {
		tracedRep(s, 1, sh)
	}
	if s.failed() != 0 || sh.samples == 0 {
		t.Fatalf("%d samples, failures %q", sh.samples, s.failures)
	}
	var sum float64
	for _, l := range layers {
		sum += sh.share(l)
	}
	if d := sum - 1; d > 0.001 || d < -0.001 {
		t.Errorf("shares sum to %v over layers %v: %v", sum, layers, sh.byLayer)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parsed a non-gzip profile")
	}
	var gz bytes.Buffer
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("parsed an empty profile")
	}
}
