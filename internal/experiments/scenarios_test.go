package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"dcqcn/internal/flightrec"
	"dcqcn/internal/harness"
	"dcqcn/internal/invariant"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

func testRegistry(t *testing.T, fid Fidelity) *harness.Registry {
	t.Helper()
	reg := harness.NewRegistry()
	RegisterScenarios(reg, fid)
	RegisterChaosScenarios(reg, fid)
	return reg
}

func TestRegisterScenarios(t *testing.T) {
	reg := testRegistry(t, tiny())
	want := []string{
		"unfairness", "victimflow", "fig10", "convergence-fig13", "incast",
		"benchmark-fig16", "fig17", "fig18", "fig19", "fig20",
		"ablation-g", "ablation-rai", "ablation-timer", "ablation-cnp",
		"ablation-faststart", "randomloss", "timely-comparison",
		"chaos-pause-storm", "chaos-flap-incast", "chaos-lossy-link",
		"chaos-victim-storm", "chaos-deadlock-probe",
	}
	got := reg.Names()
	if len(got) != len(want) {
		t.Fatalf("registered %d scenarios %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scenario %d = %q, want %q", i, got[i], want[i])
		}
	}
	for _, sc := range reg.All() {
		if sc.Description == "" {
			t.Errorf("scenario %q has no description", sc.Name)
		}
		if len(sc.Seeds) != tiny().Runs {
			t.Errorf("scenario %q has %d seeds, want %d", sc.Name, len(sc.Seeds), tiny().Runs)
		}
	}
}

// TestScenarioDeterminism is the regression gate the harness exists to
// keep honest: one representative scenario (the full Fig. 2 testbed,
// both modes) swept twice sequentially and once with 4 workers must
// produce identical engine digests and identical metric values, record
// for record.
func TestScenarioDeterminism(t *testing.T) {
	fid := Fidelity{Duration: 5 * simtime.Millisecond, Warmup: 2 * simtime.Millisecond, Runs: 1}
	reg := testRegistry(t, fid)
	scs, err := reg.Select("unfairness")
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(parallel int) *harness.SweepResult {
		res, err := harness.Sweep(scs, harness.Config{Parallel: parallel})
		if err != nil {
			t.Fatalf("sweep at parallel=%d: %v", parallel, err)
		}
		return res
	}
	first, again, parallel4 := sweep(1), sweep(1), sweep(4)

	compare := func(label string, other *harness.SweepResult) {
		t.Helper()
		if len(other.Records) != len(first.Records) {
			t.Fatalf("%s: %d records vs %d", label, len(other.Records), len(first.Records))
		}
		for i := range first.Records {
			a, b := first.Records[i], other.Records[i]
			if a.Digest != b.Digest {
				t.Fatalf("%s: %s/%s seed=%d digest %s vs %s — nondeterminism",
					label, a.Scenario, a.Point, a.Seed, a.Digest, b.Digest)
			}
			aj, _ := json.Marshal(a.Metrics)
			bj, _ := json.Marshal(b.Metrics)
			if !bytes.Equal(aj, bj) {
				t.Fatalf("%s: %s/%s seed=%d metrics differ:\n%s\nvs\n%s",
					label, a.Scenario, a.Point, a.Seed, aj, bj)
			}
		}
	}
	compare("rerun", again)
	compare("parallel=4", parallel4)

	// Sanity: the runs did real work and produced non-empty metrics.
	if first.Records[0].Events == 0 {
		t.Fatal("representative run executed no events")
	}
	if len(first.Records[0].Metrics) == 0 {
		t.Fatal("representative run produced no metrics")
	}
}

// goldenFid is pinned independently of tiny() so unrelated test-speed
// tweaks elsewhere cannot silently invalidate the golden table below.
func goldenFid() Fidelity {
	return Fidelity{Duration: 3 * simtime.Millisecond, Warmup: 1 * simtime.Millisecond, Runs: 1}
}

// goldenDigests pins engine.Digest values ("events:hash") for the
// seed-0 run of each registered scenario's first grid point at
// goldenFid. Any nondeterminism — wall-clock leakage, global RNG, map
// iteration reaching the event stream — or any intentional model change
// shows up here as a digest mismatch in plain `go test`, without
// running the sweep CLI's -check-determinism gate. On intentional model
// changes, re-pin from the table the failure message prints.
var goldenDigests = map[string]string{
	"unfairness":        "130924:aa4fd25a5a834bba",
	"victimflow":        "312733:cb5efd218fa075fc",
	"convergence-fig13": "77428:4bb0701adac63799",
	"incast":            "16354:87b0ee236b73db17",
	"benchmark-fig16":   "901708:07cf1b21c0db31eb",
	"fig18":             "601011:94732d5ccabd04ee",
	"ablation-g":        "41858:60458b270a51e25d",
	"ablation-rai":      "58115:04cd75a5b202b14d",
	"ablation-timer":    "98779:aa141b61c572cd01",
	"ablation-cnp":      "103709:53983ff579e92eb3",
	"randomloss":        "63473:5e5b7b804cc8d11c",

	// The DCTCP rigs of fig19 and ablation-faststart are their second
	// points, which no row reaches: `make smoke` gates their
	// determinism instead.
	"fig10":              "853277:bab478aeda1e9d79",
	"fig17":              "344044:f30d66d35d60dadf",
	"fig19":              "46136:ba6461ba487b721d",
	"fig20":              "69264:8a8959ac8ff516fd",
	"ablation-faststart": "1753:f2fb0d70db284b75",
	"timely-comparison":  "25408:1bd1dc46fdf51cfc",

	// Chaos suite: digests cover the fault-injection subsystem too — an
	// injector that drew from the primary stream or armed transitions
	// nondeterministically would shift these.
	"chaos-pause-storm":    "62793:22fe652c2a072b64",
	"chaos-flap-incast":    "68496:9f528e091e1ff6c6",
	"chaos-lossy-link":     "11656:bd8eb7b58a685dc4",
	"chaos-victim-storm":   "235238:32914a44a8376cc9",
	"chaos-deadlock-probe": "270691:42a71d69c8b14d3b",
}

// metricName is the rule every scenario metric key follows: the keys
// become JSONL fields, summary columns and cc_compare entries.
var metricName = regexp.MustCompile(`^[a-z0-9_]+$`)

// TestGoldenDigests is the golden matrix: in every row, each registered
// scenario's seed-0 run on its first grid point must reproduce its
// pinned digest. The plain row guards the model itself: it requires
// every metric key to match metricName, and it audits every run, with
// the conservation auditor attached to each network the scenario
// builds. The armed rows are passivity gates — the flight recorder
// armed, and the hybrid substrate armed at zero background flows, must
// not perturb any run — and each proves it is not vacuous: the
// recorder must capture events in every scenario, and the same hybrid
// arming at 1000 flows (audited too) must move incast off its golden.
func TestGoldenDigests(t *testing.T) {
	defer flightrec.Disarm()
	hybridOff := goldenFid()
	hybridOff.Hybrid = true
	rows := []struct {
		name string
		fid  Fidelity
		// blame names what a digest mismatch in this row indicts; empty
		// for the plain row, whose mismatches are model changes.
		blame string
		// arm, if set, arms the row's mechanism before one scenario's
		// run and returns the check that it engaged in that run.
		arm func() (engaged func() error)
		// live, if set, runs once after the scenarios to show that the
		// row's mechanism reaches them at all.
		live func(t *testing.T, fid Fidelity)
		// checkNames requires every metric key to be an artifact name.
		checkNames bool
	}{
		{name: "plain", fid: goldenFid(), arm: armAuditor, checkNames: true},
		{name: "recorder", fid: goldenFid(), blame: "the flight recorder perturbed the run", arm: armRecorder},
		{name: "hybrid-off", fid: hybridOff, blame: "hybrid arming at 0 flows perturbed the run", live: hybridReachesScenarios},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reg := testRegistry(t, row.fid)
			got := make(map[string]string)
			for _, sc := range reg.All() {
				res, err := runGolden(sc, row.arm)
				if err != nil {
					t.Errorf("scenario %q: %v", sc.Name, err)
				}
				if res == nil {
					continue // the run panicked: it has no digest
				}
				got[sc.Name] = res.Digest.String()
				if row.checkNames {
					for name := range res.Metrics {
						if !metricName.MatchString(name) {
							t.Errorf("scenario %q: metric %q is not an artifact name (%s)", sc.Name, name, metricName)
						}
					}
				}
			}
			checkGolden(t, reg.Names(), got, row.blame)
			if row.live != nil {
				row.live(t, row.fid)
			}
		})
	}
}

// runGolden runs sc's seed-0 run on its first grid point with the row's
// mechanism armed, and returns the run and the arming check's error. A
// panic in the run, such as a chaos scenario's own MustClean on a
// breach, becomes the error, with a nil result, instead of ending the
// test binary; the mechanism is disarmed either way.
func runGolden(sc harness.Scenario, arm func() func() error) (res *harness.RunResult, err error) {
	var engaged func() error
	if arm != nil {
		engaged = arm()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("run panicked: %v", r)
		}
		if engaged != nil {
			if e := engaged(); err == nil {
				err = e
			}
		}
	}()
	rr := sc.Run(harness.RunContext{
		Scenario: sc.Name,
		Point:    sc.Points[0],
		PointIdx: 0,
		Seed:     0,
	})
	return &rr, nil
}

// TestPinnedDCQCNRunsIgnoreCC checks that the scenarios whose first
// point pins its algorithm keep it under another -cc algorithm: with
// fid.CC = "timely" each one's seed-0 run must still reproduce its
// golden digest. These are the runs that compare DCQCN itself against
// something else (the fluid model, DCTCP, a marking change, its own
// parameter variants) and timely-comparison, which names both of its
// algorithms. Under TIMELY's capabilities CNP generation is off, so a
// run that let fid.CC through would leave its DCQCN senders without
// feedback and diverge.
func TestPinnedDCQCNRunsIgnoreCC(t *testing.T) {
	fid := goldenFid()
	fid.CC = "timely"
	reg := testRegistry(t, fid)
	for _, name := range []string{
		"fig10", "convergence-fig13", "fig19", "fig20", "timely-comparison",
		"ablation-g", "ablation-rai", "ablation-timer", "ablation-cnp", "ablation-faststart",
	} {
		sc, _ := reg.Get(name)
		res := sc.Run(harness.RunContext{Scenario: sc.Name, Point: sc.Points[0], Seed: 0})
		if got := res.Digest.String(); got != goldenDigests[name] {
			t.Errorf("scenario %q under -cc timely: %s — it must always run DCQCN", name, diagnoseDigest(got, goldenDigests[name]))
		}
	}
}

// checkGolden compares one matrix row's digests with the golden table.
// A scenario whose run panicked has no digest in got; the row reported
// it already. Only the plain row prints a replacement table: a mismatch
// in an armed row indicts the armed mechanism, not the table.
func checkGolden(t *testing.T, names []string, got map[string]string, blame string) {
	t.Helper()
	mismatch := false
	firstDiverged := ""
	registered := make(map[string]bool, len(names))
	for _, name := range names {
		registered[name] = true
		want, ok := goldenDigests[name]
		digest, ran := got[name]
		switch {
		case !ok:
			t.Errorf("scenario %q has no golden digest", name)
			mismatch = true
		case !ran: // the run panicked, which the row reported
		case digest != want:
			msg := diagnoseDigest(digest, want)
			if blame != "" {
				msg += " — " + blame
			}
			t.Errorf("scenario %q: %s", name, msg)
			if firstDiverged == "" {
				firstDiverged = name
			}
			mismatch = true
		}
	}
	if firstDiverged != "" {
		t.Logf("first diverging scenario in registration order: %q — rerun it alone with `go test -run TestGoldenDigests/plain` after re-pinning, or bisect the model change against it", firstDiverged)
	}
	for name := range goldenDigests {
		if !registered[name] {
			t.Errorf("golden digest for unregistered scenario %q", name)
			mismatch = true
		}
	}
	if mismatch && blame == "" {
		var b strings.Builder
		for _, name := range names {
			if digest, ran := got[name]; ran {
				fmt.Fprintf(&b, "\t%q: %q,\n", name, digest)
			}
		}
		t.Logf("replacement golden table:\n%s", b.String())
	}
}

// armRecorder arms the flight recorder for one scenario's run. The
// returned check disarms it and requires that the run built a network
// and recorded events, so a silently detached recorder cannot pass.
func armRecorder() func() error {
	var recs []*flightrec.Recorder
	flightrec.Arm(flightrec.Config{}, func(r *flightrec.Recorder) { recs = append(recs, r) })
	return func() error {
		flightrec.Disarm()
		if len(recs) == 0 {
			return errors.New("built no network through topology.OnBuild")
		}
		total := 0
		for _, r := range recs {
			total += r.EventsRecorded()
		}
		if total == 0 {
			return errors.New("recorder armed but captured nothing")
		}
		return nil
	}
}

// armAuditor attaches the conservation auditor to every network one
// scenario's run builds. The returned check disarms it and requires
// that the run built a network, that each auditor's hooks fired, and
// that each passes MustClean. A chaos scenario attaches its own
// auditor too; both are passive, so the second changes nothing.
func armAuditor() func() error {
	var auds []*invariant.Auditor
	topology.OnBuild = func(n *topology.Network) { auds = append(auds, invariant.Attach(n)) }
	return func() (err error) {
		topology.OnBuild = nil
		if len(auds) == 0 {
			return errors.New("built no network through topology.OnBuild")
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		for _, a := range auds {
			if a.Checks() == 0 {
				return errors.New("auditor attached but its hooks never fired")
			}
			a.MustClean()
		}
		return nil
	}
}

// hybridReachesScenarios reruns incast with the hybrid row's arming at
// 1000 background flows: its digest must leave the golden, or the row
// would pass even if arming were silently ignored. The run is audited:
// the packet-level conservation laws hold on switches whose admission
// is fluid-coupled (the fluid bytes themselves are not audited).
func hybridReachesScenarios(t *testing.T, fid Fidelity) {
	fid.BgFlows = 1000
	reg := harness.NewRegistry()
	RegisterScenarios(reg, fid)
	sc, _ := reg.Get("incast")
	audited := armAuditor()
	res := sc.Run(harness.RunContext{Scenario: sc.Name, Point: sc.Points[0], Seed: 0})
	if err := audited(); err != nil {
		t.Errorf("incast with 1000 background flows: %v", err)
	}
	if res.Digest.String() == goldenDigests["incast"] {
		t.Error("incast digest unchanged with 1000 background flows — hybrid arming is not reaching the scenarios")
	}
}

func TestDiagnoseDigest(t *testing.T) {
	cases := []struct {
		got, want, fragment string
	}{
		{"100:aa", "90:aa", "event count diverged"},
		{"100:aa", "100:bb", "same event count"},
		{"garbage", "100:aa", "digest = garbage"},
	}
	for _, c := range cases {
		if msg := diagnoseDigest(c.got, c.want); !strings.Contains(msg, c.fragment) {
			t.Errorf("diagnoseDigest(%q, %q) = %q, want fragment %q", c.got, c.want, msg, c.fragment)
		}
	}
}

// diagnoseDigest turns a raw "events:hash" mismatch into a statement of
// *how* the run diverged: a different event count means the simulation
// did different work (events appeared, vanished, or reordered into a
// different cascade), while an identical count with a different hash
// means the same number of events fired but some event's time or
// sequence diverged — typically a payload or ordering change, not a
// structural one. That distinction is the first thing a bisection needs.
func diagnoseDigest(got, want string) string {
	gotEvents, gotHash, okG := strings.Cut(got, ":")
	wantEvents, wantHash, okW := strings.Cut(want, ":")
	if !okG || !okW {
		return fmt.Sprintf("digest = %s, want %s", got, want)
	}
	if gotEvents != wantEvents {
		return fmt.Sprintf("event count diverged: ran %s events, golden has %s (digest %s, want %s)",
			gotEvents, wantEvents, got, want)
	}
	return fmt.Sprintf("same event count (%s) but event-stream hash diverged: %s, want %s — timing or ordering changed without altering the event total",
		gotEvents, gotHash, wantHash)
}
