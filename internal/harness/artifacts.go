package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dcqcn/internal/flightrec"
)

// Artifact file names within an output directory.
const (
	RawRunsFile    = "raw_runs.jsonl"
	SummaryFile    = "summary.json"
	ProvenanceFile = "provenance.json"
)

// Provenance records everything needed to reproduce and audit a sweep:
// code identity, toolchain, machine shape, the exact seed sets, and the
// wall-clock cost. It is written alongside the data so a summary.json is
// never an orphan number.
type Provenance struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	StartedAt     string `json:"started_at"`
	GitCommit     string `json:"git_commit"`
	GoVersion     string `json:"go_version"`
	OS            string `json:"os"`
	Arch          string `json:"arch"`
	NumCPU        int    `json:"num_cpu"`
	Parallel      int    `json:"parallel"`
	Reruns        int    `json:"reruns"`
	Determinism   bool   `json:"determinism_checked"`
	// FlightRec records whether the flight recorder was armed (via
	// flightrec.Arm) for every run this sweep executed.
	FlightRec bool   `json:"flightrec_armed"`
	Fidelity  string `json:"fidelity"`
	// Hybrid and BgFlows record the fluid/packet co-simulation arming
	// (internal/hybrid): whether every run carried the fluid background
	// substrate, and at how many modeled flows.
	Hybrid  bool `json:"hybrid_armed"`
	BgFlows int  `json:"bg_flows,omitempty"`
	// CC and CCParams record the congestion-control selection driving
	// the DCQCN modes of every scenario in this sweep: the registry name
	// and the exact (possibly -cc-params-refined) parameter set.
	CC        string          `json:"cc,omitempty"`
	CCParams  json.RawMessage `json:"cc_params,omitempty"`
	Scenarios []string        `json:"scenarios"`
	// Seeds maps scenario name to its seed list.
	Seeds     map[string][]int64 `json:"seeds"`
	TotalRuns int                `json:"total_runs"`
	// TotalEvents is the number of simulator events executed across all
	// runs — the sweep's work measure.
	TotalEvents uint64  `json:"total_events"`
	WallMS      float64 `json:"wall_ms"`
}

// NewProvenance collects the environment-derived fields. startedAt is
// stamped here; the caller fills sweep-specific fields afterwards.
func NewProvenance(tool string) Provenance {
	return Provenance{
		SchemaVersion: 1,
		Tool:          tool,
		StartedAt:     time.Now().UTC().Format(time.RFC3339),
		GitCommit:     gitCommit(),
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		FlightRec:     flightrec.Armed(),
		Seeds:         make(map[string][]int64),
	}
}

// Describe fills the scenario-derived fields from a selection.
func (p *Provenance) Describe(scenarios []Scenario) {
	p.Scenarios = p.Scenarios[:0]
	for _, sc := range scenarios {
		p.Scenarios = append(p.Scenarios, sc.Name)
		p.Seeds[sc.Name] = append([]int64(nil), sc.Seeds...)
	}
}

// Record fills the result-derived fields from a finished sweep.
func (p *Provenance) Record(res *SweepResult) {
	p.TotalRuns = len(res.Records)
	p.TotalEvents = res.TotalEvents
	p.WallMS = float64(res.Wall) / float64(time.Millisecond)
}

// gitCommit returns the current HEAD commit, or "unknown" outside a git
// checkout (artifacts must never fail just because git is absent).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// WriteArtifacts writes summary.json and provenance.json into dir,
// creating it if needed. raw_runs.jsonl is streamed during the sweep via
// Config.RawWriter (see OpenRawWriter), not rewritten here.
func WriteArtifacts(dir string, res *SweepResult, prov Provenance) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, SummaryFile), struct {
		Summaries []PointSummary `json:"summaries"`
	}{res.Summaries}); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, ProvenanceFile), prov)
}

// OpenRawWriter creates dir and opens raw_runs.jsonl for streaming.
func OpenRawWriter(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(dir, RawRunsFile))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: marshal %s: %w", filepath.Base(path), err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
