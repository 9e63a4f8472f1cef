package experiments

import (
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/harness"
	"dcqcn/internal/simtime"
)

// TestChaosPauseStormPathology is the acceptance check for the chaos
// suite: the pause-storm scenario must reproduce the §2 outage shape in
// both modes. The innocent flow H1->H2 (fair share: half of H1's 40 Gb/s
// port, shared with the feeder) collapses below 10% of fair share while
// the storm holds, then recovers within a bounded time once the storm
// stops — the pause expires by quanta, no XON is ever sent. The same
// seed must also give a bit-identical digest across two runs, since a
// chaos run is still a deterministic simulation.
func TestChaosPauseStormPathology(t *testing.T) {
	fid := Fidelity{Duration: 30 * simtime.Millisecond, Warmup: 10 * simtime.Millisecond, Runs: 1}
	const fairShareGbps = 20.0

	for _, mode := range []Mode{ModePFCOnly, ModeDCQCN} {
		label := modeLabel(mode)
		m, dig := pauseStormRun(t, label, mode, fid)

		if base := m["innocent_base_gbps"]; base < 1 {
			t.Fatalf("%s: innocent flow barely moved before the storm (%.2f Gbps); scenario broken", label, base)
		}
		if min := m["innocent_during_min_gbps"]; min >= 0.1*fairShareGbps {
			t.Errorf("%s: innocent flow held %.2f Gbps during the storm; want < 10%% of its %g Gbps fair share",
				label, min, fairShareGbps)
		}
		if m["innocent_recovered"] != 1 {
			t.Errorf("%s: innocent flow never recovered after the storm cleared", label)
		} else if rec := m["innocent_recovery_us"]; rec > 5000 {
			t.Errorf("%s: recovery took %.0f us; want bounded (< 5 ms: quanta expiry plus drain)", label, rec)
		}
		if m["sender_paused_us"] == 0 {
			t.Errorf("%s: the innocent sender's port was never paused — collapse had some other cause", label)
		}
		if m["drops"] != 0 {
			t.Errorf("%s: %v drops in a lossless fabric", label, m["drops"])
		}

		m2, dig2 := pauseStormRun(t, label, mode, fid)
		if dig.String() != dig2.String() {
			t.Errorf("%s: same seed, different digests: %s vs %s", label, dig, dig2)
		}
		if m2["innocent_during_min_gbps"] != m["innocent_during_min_gbps"] {
			t.Errorf("%s: metrics differ across identical runs", label)
		}
	}
}

// pauseStormRun runs the pause-storm scenario's seed-0 run. A panic in
// it, such as the scenario's own MustClean on a conservation breach,
// fails this test instead of ending the test binary, so the golden
// matrix still runs and reports the breach per scenario.
func pauseStormRun(t *testing.T, label string, mode Mode, fid Fidelity) (harness.Metrics, engine.Digest) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: run panicked: %v", label, r)
		}
	}()
	return ChaosPauseStormRun(mode, 0, fid)
}
