package experiments

import (
	"testing"

	"dcqcn/internal/harness"
	"dcqcn/internal/simtime"
)

// TestRegisterHybridScenarios pins the hybrid scenario names and checks
// they coexist with the main registry (the CLIs register both).
func TestRegisterHybridScenarios(t *testing.T) {
	reg := testRegistry(t, tiny())
	before := len(reg.Names())
	RegisterHybridScenarios(reg, tiny())
	want := []string{"hybrid-incast", "hybrid-victim", "hybrid-validate"}
	got := reg.Names()[before:]
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hybrid scenario %d = %q, want %q", i, got[i], want[i])
		}
	}
	for _, name := range want {
		sc, _ := reg.Get(name)
		if sc.Description == "" {
			t.Errorf("scenario %q has no description", name)
		}
		if len(sc.Points) == 0 {
			t.Errorf("scenario %q has no points", name)
		}
	}
}

// TestHybridScenariosSmoke runs the first grid point of each hybrid
// scenario at tiny fidelity, twice, checking real work and determinism
// at scale (the first hybrid-incast point already models 10k flows).
func TestHybridScenariosSmoke(t *testing.T) {
	run := func() map[string]harness.RunResult {
		reg := harness.NewRegistry()
		RegisterHybridScenarios(reg, tiny())
		out := make(map[string]harness.RunResult)
		for _, sc := range reg.All() {
			out[sc.Name] = sc.Run(harness.RunContext{
				Scenario: sc.Name, Point: sc.Points[0], PointIdx: 0, Seed: 0,
			})
		}
		return out
	}
	a, b := run(), run()
	for name, res := range a {
		if res.Digest.Events == 0 {
			t.Errorf("scenario %q executed no events", name)
		}
		if len(res.Metrics) == 0 {
			t.Errorf("scenario %q produced no metrics", name)
		}
		if res.Digest != b[name].Digest {
			t.Errorf("scenario %q nondeterministic: %s vs %s", name, res.Digest, b[name].Digest)
		}
	}
	// The substrate must visibly load the fabric: 10k background flows
	// under an 8:1 incast cannot leave the foreground at full rate.
	if total := a["hybrid-incast"].Metrics["total_gbps"]; total <= 0 || total >= 39 {
		t.Errorf("hybrid-incast foreground at %.1f Gbps under 10k background flows — coupling missing or absurd", total)
	}
}

// TestHybridValidationAcceptance is the accuracy gate from the issue:
// on the mid-size rig, the hybrid run's foreground throughput and mean
// bottleneck queue must stay within HybridValidationBoundPct of the
// pure-packet ground truth that models every background flow
// individually.
func TestHybridValidationAcceptance(t *testing.T) {
	// The warmup must clear the fluid transient (classes start at line
	// rate and have to find the marking equilibrium) — see the bound's
	// doc comment.
	fid := Fidelity{Duration: 10 * simtime.Millisecond, Warmup: 20 * simtime.Millisecond, Runs: 1}
	for _, bg := range []int{8, 16} {
		res, dig := HybridValidationRun(4, bg, 0, fid)
		t.Logf("4:%d fg %.2f vs %.2f Gbps (%.1f%%), queue %.1f vs %.1f KB (%.1f%%)",
			bg, res.PacketFgGbps, res.HybridFgGbps, res.FgErrPct,
			res.PacketQueueKB, res.HybridQueueKB, res.QueueErrPct)
		if dig.Events == 0 {
			t.Fatalf("bg=%d: validation ran no events", bg)
		}
		if res.PacketFgGbps <= 0 || res.HybridFgGbps <= 0 {
			t.Fatalf("bg=%d: zero foreground throughput (packet %.2f, hybrid %.2f)",
				bg, res.PacketFgGbps, res.HybridFgGbps)
		}
		if res.FgErrPct > HybridValidationBoundPct {
			t.Errorf("bg=%d: foreground throughput error %.1f%% exceeds the %.0f%% bound",
				bg, res.FgErrPct, HybridValidationBoundPct)
		}
		if res.QueueErrPct > HybridValidationBoundPct {
			t.Errorf("bg=%d: queue occupancy error %.1f%% exceeds the %.0f%% bound",
				bg, res.QueueErrPct, HybridValidationBoundPct)
		}
	}
}
