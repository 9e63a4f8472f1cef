package flightrec_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dcqcn/internal/cc"
	"dcqcn/internal/faults"
	"dcqcn/internal/flightrec"
	"dcqcn/internal/nic"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// pfcOnlyOpts mirrors the experiments package's "No DCQCN" mode:
// uncontrolled line-rate senders over lossless PFC, so back-pressure
// cascades build within a couple of simulated milliseconds.
func pfcOnlyOpts() topology.Options {
	opts := topology.DefaultOptions()
	topology.ApplyCC(&opts, cc.Fixed(40*simtime.Gbps), true)
	opts.NIC.Transport.WindowPackets = 16384
	opts.NIC.Transport.RTO = 2 * simtime.Millisecond
	return opts
}

// runRecorded builds a 3-host star, attaches a recorder, and drives a
// 2:1 incast into H3 for 3 ms. The deep transport window keeps the
// bottleneck egress above the marking threshold, so the run draws ECN
// probabilities from the seed-derived primary stream — which is what
// makes recordings of different seeds actually diverge.
func runRecorded(t *testing.T, seed int64, cfg flightrec.Config) *flightrec.Recorder {
	t.Helper()
	opts := topology.DefaultOptions()
	opts.NIC.Transport.WindowPackets = 16384
	net := topology.NewStar(seed, 3, opts)
	r := flightrec.Attach(net, cfg)
	for _, src := range []string{"H1", "H2"} {
		f := net.Host(src).OpenFlow(net.Host("H3").ID)
		for i := 0; i < 4; i++ {
			f.PostMessage(1000*1000, func(rocev2.Completion) {})
		}
	}
	net.Sim.Run(simtime.Time(3 * simtime.Millisecond))
	return r
}

func TestAttachRecordsTraffic(t *testing.T) {
	r := runRecorded(t, 1, flightrec.Config{})
	if r.EventsRecorded() == 0 {
		t.Fatal("recorder attached to a busy network captured nothing")
	}
	if r.EventsEvicted() != 0 {
		t.Fatalf("default 16 MB budget evicted %d events on a 3 ms run", r.EventsEvicted())
	}
	for _, k := range []flightrec.Kind{flightrec.KindEnqueue, flightrec.KindDequeue} {
		if r.CountByKind(k) == 0 {
			t.Errorf("no %s events on a busy flow", k)
		}
	}
	evs := r.Events()
	if len(evs) != r.EventsRetained() {
		t.Fatalf("Events() returned %d, EventsRetained says %d", len(evs), r.EventsRetained())
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d decoded with Seq %d", i, e.Seq)
		}
		if i > 0 && e.At < evs[i-1].At {
			t.Fatalf("time went backwards at #%d: %s after %s", i, e.At, evs[i-1].At)
		}
		if e.Kind != flightrec.KindFault && e.Node == "" {
			t.Fatalf("event %s has no node metadata", e)
		}
	}
}

func TestAttachRegistersPortMetadata(t *testing.T) {
	net := topology.NewStar(3, 2, topology.DefaultOptions())
	r := flightrec.Attach(net, flightrec.Config{})
	if got := len(r.Nodes()); got != 3 { // SW, H1, H2
		t.Fatalf("registered %d nodes, want 3", got)
	}
	h1, ok := r.PortInfoFor("H1")
	if !ok || !h1.Host {
		t.Fatalf("H1 port metadata missing or not a host: %+v", h1)
	}
	if h1.PeerNode != "SW" || h1.Peer == "" {
		t.Fatalf("H1 peer not resolved to a switch port: %+v", h1)
	}
	back, ok := r.PortInfoFor(h1.Peer)
	if !ok || back.Peer != "H1" || back.PeerNode != "H1" {
		t.Fatalf("peer metadata not symmetric: %+v", back)
	}
}

func TestArmAttachesOnBuild(t *testing.T) {
	defer flightrec.Disarm()
	var got []*flightrec.Recorder
	flightrec.Arm(flightrec.Config{}, func(r *flightrec.Recorder) { got = append(got, r) })
	if !flightrec.Armed() {
		t.Fatal("Armed() false after Arm")
	}
	net := topology.NewStar(5, 2, topology.DefaultOptions())
	if len(got) != 1 {
		t.Fatalf("sink saw %d recorders after one build, want 1", len(got))
	}
	f := net.Host("H1").OpenFlow(net.Host("H2").ID)
	f.PostMessage(100*1000, func(rocev2.Completion) {})
	net.Sim.Run(simtime.Time(simtime.Millisecond))
	if got[0].EventsRecorded() == 0 {
		t.Fatal("armed recorder captured nothing")
	}
	flightrec.Disarm()
	if flightrec.Armed() {
		t.Fatal("Armed() true after Disarm")
	}
	topology.NewStar(6, 2, topology.DefaultOptions())
	if len(got) != 1 {
		t.Fatal("sink ran after Disarm")
	}
}

func TestRingEviction(t *testing.T) {
	// A budget of ~2 chunks forces heavy eviction on a busy run.
	r := runRecorded(t, 2, flightrec.Config{MaxBytes: 128 << 10})
	if r.EventsEvicted() == 0 {
		t.Fatal("tiny ring evicted nothing on a busy run")
	}
	if r.RetainedBytes() > (128<<10)+(80<<10) {
		t.Fatalf("retained %d bytes, budget 128 KB + one chunk", r.RetainedBytes())
	}
	evs := r.Events()
	if len(evs) == 0 {
		t.Fatal("eviction left nothing decodable")
	}
	if evs[0].Seq != r.EventsEvicted() {
		t.Fatalf("first retained Seq %d, want eviction count %d", evs[0].Seq, r.EventsEvicted())
	}
	if last := evs[len(evs)-1]; last.Seq != r.EventsRecorded()-1 {
		t.Fatalf("tail Seq %d, want %d: the newest events must survive", last.Seq, r.EventsRecorded()-1)
	}
}

func TestFlowTimeline(t *testing.T) {
	net := topology.NewStar(7, 3, topology.DefaultOptions())
	r := flightrec.Attach(net, flightrec.Config{})
	f1 := net.Host("H1").OpenFlow(net.Host("H3").ID)
	f2 := net.Host("H2").OpenFlow(net.Host("H3").ID)
	f1.PostMessage(500*1000, func(rocev2.Completion) {})
	f2.PostMessage(500*1000, func(rocev2.Completion) {})
	net.Sim.Run(simtime.Time(2 * simtime.Millisecond))

	tl := r.FlowTimeline(f1.ID(), 0)
	if len(tl) == 0 {
		t.Fatal("empty timeline for an active flow")
	}
	for _, e := range tl {
		if e.Flow != f1.ID() {
			t.Fatalf("timeline for flow %d contains %s", f1.ID(), e)
		}
	}
	if capped := r.FlowTimeline(f1.ID(), 3); len(capped) != 3 {
		t.Fatalf("max=3 returned %d events", len(capped))
	}
}

// stormNet runs the miniature §2 pause storm from the chaos suite — H4
// storms XOFF, two deep flows wedge the egress, the innocent H1->H2
// flow gets paused through back-pressure — and returns the recorder.
func stormRecorder(t *testing.T) (*flightrec.Recorder, *topology.Network) {
	t.Helper()
	net := topology.NewStar(11, 4, pfcOnlyOpts())
	r := flightrec.Attach(net, flightrec.Config{})
	in := faults.NewInjector(net, 0x5EED)
	plan := faults.Plan{{
		Kind:     faults.PauseStorm,
		Target:   "H4",
		Start:    simtime.Millisecond,
		Duration: 2 * simtime.Millisecond,
	}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	open := func(src, dst string) *nic.Flow {
		return net.Host(src).OpenFlow(net.Host(dst).ID)
	}
	post := func(f *nic.Flow, size int64) {
		f.PostMessage(size, func(rocev2.Completion) {})
	}
	post(open("H1", "H2"), 2*1000*1000)  // innocent
	post(open("H1", "H4"), 64*1000*1000) // drags H1 into the cascade
	post(open("H3", "H4"), 64*1000*1000) // keeps the wedged egress backlogged
	net.Sim.Run(simtime.Time(4 * simtime.Millisecond))
	return r, net
}

func TestPauseChainReconstructsStorm(t *testing.T) {
	r, net := stormRecorder(t)
	if r.CountByKind(flightrec.KindXoff) == 0 {
		t.Fatal("storm produced no XOFF events")
	}
	if got := r.CountByKind(flightrec.KindFault); got != 2 {
		t.Fatalf("recorded %d fault transitions, want activate+clear", got)
	}

	prio := net.Host("H1").DataPriority()
	chain, err := r.PauseChain("H1", prio)
	if err != nil {
		t.Fatalf("PauseChain(H1): %v", err)
	}
	if chain.Node != "H1" || chain.SenderNode != "SW" {
		t.Fatalf("victim hop wrong: %+v", chain)
	}
	// The cascade must bottom out at H4, the storming NIC: some leaf's
	// pauses were asserted by H4 without H4 being paused itself.
	var foundRoot bool
	var walk func(n *flightrec.PauseNode)
	walk = func(n *flightrec.PauseNode) {
		if n.Origin && n.SenderNode == "H4" {
			foundRoot = true
		}
		for _, c := range n.Causes {
			walk(c)
		}
	}
	walk(chain)
	if !foundRoot {
		t.Fatalf("causal chain never reached the storming NIC H4:\n%s", flightrec.FormatPauseChain(chain))
	}

	tree := flightrec.FormatPauseChain(chain)
	for _, want := range []string{"H1", "paused by SW", "root cause", "H4"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("formatted chain missing %q:\n%s", want, tree)
		}
	}

	sums := r.PausedPorts()
	if len(sums) == 0 {
		t.Fatal("PausedPorts empty after a storm")
	}
	var hostPaused bool
	for _, s := range sums {
		if s.Host && s.Node == "H1" && s.Xoffs > 0 {
			hostPaused = true
		}
	}
	if !hostPaused {
		t.Fatalf("innocent sender H1 not among paused ports: %+v", sums)
	}
}

func TestPauseChainErrors(t *testing.T) {
	r := runRecorded(t, 9, flightrec.Config{})
	if _, err := r.PauseChain("nosuch", 3); err == nil {
		t.Fatal("unknown port accepted")
	}
	if _, err := r.PauseChain("H1", 3); err == nil {
		t.Fatal("PauseChain succeeded on a run with no PFC activity")
	}
}

func TestDiffSameSeedIsIdentical(t *testing.T) {
	a := runRecorded(t, 42, flightrec.Config{})
	b := runRecorded(t, 42, flightrec.Config{})
	if d := flightrec.Diff(a, b); d != nil {
		t.Fatalf("same seed diverged:\n%s", d.Format())
	}
	if got := (*flightrec.Divergence)(nil).Format(); !strings.Contains(got, "identical") {
		t.Fatalf("nil divergence formats as %q", got)
	}
}

func TestDiffReportsFirstDivergence(t *testing.T) {
	a := runRecorded(t, 42, flightrec.Config{})
	b := runRecorded(t, 43, flightrec.Config{})
	d := flightrec.Diff(a, b)
	if d == nil {
		t.Fatal("different seeds produced identical recordings")
	}
	if len(d.ContextA) == 0 || len(d.ContextB) == 0 {
		t.Fatalf("divergence carries no context: %+v", d)
	}
	if d.ContextA[len(d.ContextA)-1].Seq != d.Seq {
		t.Fatalf("context A does not end at the diverging event %d", d.Seq)
	}
	out := d.Format()
	for _, want := range []string{"first divergence", "run A", "run B", ">"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	r := runRecorded(t, 4, flightrec.Config{})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != r.EventsRetained()+1 {
		t.Fatalf("CSV has %d lines, want header + %d events", len(lines), r.EventsRetained())
	}
	if !strings.HasPrefix(lines[0], "seq,at_ps,at_us,kind,port,node") {
		t.Fatalf("unexpected header %q", lines[0])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r, _ := stormRecorder(t)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Cat  string  `json:"cat"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	counts := map[string]int{}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		counts[e.Ph]++
		if e.Ph == "M" {
			names[e.Name] = true
		}
		if e.Ts < 0 {
			t.Fatalf("negative timestamp in %+v", e)
		}
	}
	if !names["process_name"] || !names["thread_name"] {
		t.Fatal("missing process/thread metadata events")
	}
	if counts["X"] == 0 {
		t.Fatal("no complete slices (queue residency / pause intervals)")
	}
	if counts["i"] == 0 {
		t.Fatal("no instant events (XOFF/drops)")
	}
	var pfcSlice bool
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && e.Cat == "pfc" {
			pfcSlice = true
		}
	}
	if !pfcSlice {
		t.Fatal("storm produced no pause-interval slice")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	export := func() string {
		r := runRecorded(t, 8, flightrec.Config{})
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if export() != export() {
		t.Fatal("Chrome trace export is not byte-deterministic across identical runs")
	}
}
