package faults_test

import (
	"testing"

	"dcqcn/internal/cc"
	"dcqcn/internal/faults"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// pfcOnlyOpts mirrors the experiments package's "No DCQCN" mode:
// uncontrolled line-rate senders over lossless PFC, marking off, with a
// transport window far beyond any path's buffering and a short RTO so
// fault-recovery tests converge quickly.
func pfcOnlyOpts() topology.Options {
	opts := topology.DefaultOptions()
	topology.ApplyCC(&opts, cc.Fixed(40*simtime.Gbps), true)
	opts.NIC.Transport.WindowPackets = 16384
	opts.NIC.Transport.RTO = 2 * simtime.Millisecond
	return opts
}

func TestPlanValidate(t *testing.T) {
	net := topology.NewStar(1, 2, pfcOnlyOpts())
	ms := simtime.Millisecond
	cases := []struct {
		name string
		plan faults.Plan
	}{
		{"negative start", faults.Plan{{Kind: faults.LinkFlap, Target: "H1", Start: -ms, Duration: ms}}},
		{"zero duration", faults.Plan{{Kind: faults.LinkFlap, Target: "H1"}}},
		{"unknown host", faults.Plan{{Kind: faults.LinkFlap, Target: "H9", Duration: ms}}},
		{"loss rate 0", faults.Plan{{Kind: faults.PacketLoss, Target: "H1", Duration: ms}}},
		{"loss rate 1", faults.Plan{{Kind: faults.PacketLoss, Target: "H1", Duration: ms, LossRate: 1}}},
		{"storm priority", faults.Plan{{Kind: faults.PauseStorm, Target: "H1", Duration: ms, Priority: 8}}},
		{"slow rx rate", faults.Plan{{Kind: faults.SlowReceiver, Target: "H1", Duration: ms}}},
		{"misconfig switch", faults.Plan{{Kind: faults.SwitchMisconfig, Target: "H1", Duration: ms, Beta: 1}}},
		{"misconfig empty", faults.Plan{{Kind: faults.SwitchMisconfig, Target: "SW", Duration: ms}}},
		{"overlapping loss", faults.Plan{
			{Kind: faults.PacketLoss, Target: "H1", Start: 0, Duration: 2 * ms, LossRate: 0.1},
			{Kind: faults.PacketLoss, Target: "H1", Start: ms, Duration: 2 * ms, LossRate: 0.1},
		}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(net); err == nil {
			t.Errorf("%s: Validate accepted an invalid plan", tc.name)
		}
	}
	ok := faults.Plan{
		{Kind: faults.PacketLoss, Target: "H1", Start: 0, Duration: ms, LossRate: 0.1},
		{Kind: faults.PacketLoss, Target: "H1", Start: 2 * ms, Duration: ms, LossRate: 0.1},
		{Kind: faults.PauseStorm, Target: "H2", Start: 0, Duration: ms},
		{Kind: faults.SwitchMisconfig, Target: "SW", Start: 0, Duration: ms, Beta: 0.25},
	}
	if err := ok.Validate(net); err != nil {
		t.Fatalf("Validate rejected a valid plan: %v", err)
	}
}

func TestLinkFlapDropsAndRecovers(t *testing.T) {
	net := topology.NewStar(1, 2, pfcOnlyOpts())
	in := faults.NewInjector(net, 1)
	plan := faults.Plan{{
		Kind:      faults.LinkFlap,
		Target:    "H1",
		Start:     simtime.Millisecond,
		Duration:  2 * simtime.Millisecond,
		FlapCount: 2,
	}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	// Enough 1 MB messages (~8 ms of line-rate traffic) that the flap
	// window at 1-3 ms lands on an active transfer.
	done := 0
	f := net.Host("H1").OpenFlow(net.Host("H2").ID)
	const messages = 40
	for i := 0; i < messages; i++ {
		f.PostMessage(1000*1000, func(rocev2.Completion) { done++ })
	}
	net.Sim.Run(simtime.Time(40 * simtime.Millisecond))

	o := in.Outcomes()[0]
	if o.ActivatedAt == 0 || o.Active {
		t.Fatalf("fault never ran its full window: %+v", o)
	}
	if o.Injected == 0 {
		t.Fatal("flap dropped no frames while a message was in flight")
	}
	if net.HostLink("H1").IsDown() {
		t.Fatal("link still down after fault cleared")
	}
	st := f.Stats()
	if st.Retransmits == 0 && st.Timeouts == 0 {
		t.Fatalf("flap did not exercise go-back-N recovery: %+v", st)
	}
	if done != messages {
		t.Fatalf("%d/%d messages completed after link recovery: %+v", done, messages, st)
	}
}

func TestPacketLossInjectsFromAuxStream(t *testing.T) {
	net := topology.NewStar(1, 2, pfcOnlyOpts())
	in := faults.NewInjector(net, 7)
	plan := faults.Plan{{
		Kind:     faults.PacketLoss,
		Target:   "H1",
		Start:    simtime.Millisecond,
		Duration: 5 * simtime.Millisecond,
		LossRate: 0.05,
	}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	done := false
	f := net.Host("H1").OpenFlow(net.Host("H2").ID)
	f.PostMessage(8*1000*1000, func(rocev2.Completion) { done = true })
	net.Sim.Run(simtime.Time(40 * simtime.Millisecond))

	o := in.Outcomes()[0]
	if o.Injected == 0 {
		t.Fatal("loss fault dropped nothing at 5% over a busy window")
	}
	if l := net.HostLink("H1"); l.FaultDrops() != o.Injected {
		t.Fatalf("link FaultDrops %d != outcome Injected %d", l.FaultDrops(), o.Injected)
	}
	st := f.Stats()
	if st.Retransmits == 0 || st.RetransmitBytes == 0 {
		t.Fatalf("loss did not exercise retransmission: %+v", st)
	}
	if !done {
		t.Fatalf("message never completed after loss window: %+v", st)
	}
}

func TestPauseStormFreezesVictimAndExpires(t *testing.T) {
	net := topology.NewStar(1, 2, pfcOnlyOpts())
	in := faults.NewInjector(net, 1)
	stormStart := 1 * simtime.Millisecond
	stormDur := 3 * simtime.Millisecond
	plan := faults.Plan{{
		Kind:     faults.PauseStorm,
		Target:   "H2",
		Start:    stormStart,
		Duration: stormDur,
	}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	// 1 MB messages so PayloadAcked (credited per completed message)
	// tracks delivery with sub-millisecond granularity; far more queued
	// than the run can move.
	f := net.Host("H1").OpenFlow(net.Host("H2").ID)
	for i := 0; i < 100; i++ {
		f.PostMessage(1000*1000, nil)
	}

	var atStart, atEnd int64
	sim := net.Sim
	sim.At(simtime.Time(stormStart), func() { atStart = f.Stats().PayloadAcked })
	sim.At(simtime.Time(stormStart+stormDur), func() { atEnd = f.Stats().PayloadAcked })
	sim.Run(simtime.Time(8 * simtime.Millisecond))

	o := in.Outcomes()[0]
	if o.Injected < 2 {
		t.Fatalf("storm emitted %d XOFF frames; want initial + refreshes", o.Injected)
	}
	// The switch's port toward H2 must have spent real time paused.
	swPort := net.Host("H2").Port().Peer()
	prio := net.Host("H2").DataPriority()
	if swPort.Stats.PausedFor[prio] == 0 {
		t.Fatal("switch egress toward storming NIC never recorded paused time")
	}
	// During the storm the victim flow must be (nearly) frozen: at line
	// rate 3 ms would move ~15 MB, so anything beyond in-flight residue
	// (~a couple of messages) means the pause did not hold.
	during := atEnd - atStart
	if during > 2*1000*1000 {
		t.Fatalf("flow moved %d bytes during a 3 ms storm; expected a freeze", during)
	}
	// No XON is ever sent: recovery is by quanta expiry (<1 ms), so in
	// the 4 ms after the storm clears the flow must move several MB.
	after := f.Stats().PayloadAcked - atEnd
	if after < 5*1000*1000 {
		t.Fatalf("flow did not recover after storm: during=%d after=%d", during, after)
	}
}

func TestSlowReceiverThrottlesAndRestores(t *testing.T) {
	net := topology.NewStar(1, 2, pfcOnlyOpts())
	in := faults.NewInjector(net, 1)
	start := 1 * simtime.Millisecond
	dur := 3 * simtime.Millisecond
	plan := faults.Plan{{
		Kind:      faults.SlowReceiver,
		Target:    "H2",
		Start:     start,
		Duration:  dur,
		DrainRate: 1 * simtime.Gbps,
	}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	f := net.Host("H1").OpenFlow(net.Host("H2").ID)
	for i := 0; i < 100; i++ {
		f.PostMessage(1000*1000, nil)
	}

	var atStart, atEnd int64
	sim := net.Sim
	sim.At(simtime.Time(start), func() { atStart = f.Stats().PayloadAcked })
	sim.At(simtime.Time(start+dur), func() { atEnd = f.Stats().PayloadAcked })
	sim.Run(simtime.Time(8 * simtime.Millisecond))

	// 1 Gb/s over 3 ms moves at most ~375 KB up the stack; allow
	// message-completion granularity (1 MB) plus rx buffer on top.
	during := atEnd - atStart
	if during > 2*1000*1000 {
		t.Fatalf("victim receiver absorbed %d bytes during throttle; want ~1 Gb/s", during)
	}
	// The overdriven receiver must have asserted PFC toward its ToR.
	if net.Host("H2").Port().Stats.PauseTx == 0 {
		t.Fatal("slow receiver never sent PFC pause")
	}
	if got := net.Host("H2").Config().RxProcessingRate; got != 0 {
		t.Fatalf("rx processing rate not restored after fault: %v", got)
	}
	after := f.Stats().PayloadAcked - atEnd
	if after <= during {
		t.Fatalf("flow did not speed back up after restore: during=%d after=%d", during, after)
	}
}

func TestSwitchMisconfigAppliesAndRestores(t *testing.T) {
	net := topology.NewStar(1, 2, pfcOnlyOpts())
	in := faults.NewInjector(net, 1)
	start := 1 * simtime.Millisecond
	dur := 2 * simtime.Millisecond
	plan := faults.Plan{{
		Kind:               faults.SwitchMisconfig,
		Target:             "SW",
		Start:              start,
		Duration:           dur,
		Beta:               0.25,
		StaticPFCThreshold: 30 * 1000,
		KMin:               5 * 1000,
		KMax:               10 * 1000,
		PMax:               0.5,
	}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	before := net.Switch("SW").Config()
	var mid struct {
		beta   float64
		static int64
		kmin   int64
	}
	sim := net.Sim
	sim.At(simtime.Time(start+dur/2), func() {
		c := net.Switch("SW").Config()
		mid.beta, mid.static, mid.kmin = c.Beta, c.StaticPFCThreshold, c.Marking.KMin
	})
	net.Host("H1").OpenFlow(net.Host("H2").ID).PostMessage(1000*1000, nil)
	sim.Run(simtime.Time(5 * simtime.Millisecond))

	if mid.beta != 0.25 || mid.static != 30*1000 || mid.kmin != 5*1000 {
		t.Fatalf("overrides not in force mid-window: %+v", mid)
	}
	after := net.Switch("SW").Config()
	if after.Beta != before.Beta || after.StaticPFCThreshold != before.StaticPFCThreshold ||
		after.Marking != before.Marking {
		t.Fatalf("switch config not restored:\nbefore %+v\nafter  %+v", before, after)
	}
}

// chaosRun drives a star network through a composite plan (loss + flap +
// storm) and returns the engine digest plus outcomes — the determinism
// probe for the whole subsystem.
func chaosRun(seed, auxSeed int64) (string, []faults.Outcome) {
	net := topology.NewStar(seed, 4, pfcOnlyOpts())
	in := faults.NewInjector(net, auxSeed)
	plan := faults.Plan{
		{Kind: faults.PacketLoss, Target: "H1", Start: simtime.Millisecond, Duration: 3 * simtime.Millisecond, LossRate: 0.02},
		{Kind: faults.LinkFlap, Target: "H3", Start: 2 * simtime.Millisecond, Duration: simtime.Millisecond, FlapCount: 2},
		{Kind: faults.PauseStorm, Target: "H4", Start: simtime.Millisecond, Duration: 2 * simtime.Millisecond},
	}
	if err := in.Arm(plan); err != nil {
		panic(err)
	}
	net.Host("H1").OpenFlow(net.Host("H2").ID).PostMessage(8*1000*1000, nil)
	net.Host("H3").OpenFlow(net.Host("H4").ID).PostMessage(8*1000*1000, nil)
	net.Sim.Run(simtime.Time(10 * simtime.Millisecond))
	return net.Sim.Digest().String(), in.Outcomes()
}

func TestInjectorDeterminism(t *testing.T) {
	d1, o1 := chaosRun(3, 11)
	d2, o2 := chaosRun(3, 11)
	if d1 != d2 {
		t.Fatalf("same seed, same plan, different digests: %s vs %s", d1, d2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("outcome count differs: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d differs across identical runs:\n%+v\n%+v", i, o1[i], o2[i])
		}
	}
	// A different auxiliary seed changes which frames the loss fault
	// kills, so it must be reaching the aux stream, not a constant.
	_, o3 := chaosRun(3, 99)
	if o3[0].Injected == o1[0].Injected && o3[0].ClearedAt == o1[0].ClearedAt {
		t.Logf("note: aux seed change left loss count identical (%d); legal but unlikely", o1[0].Injected)
	}
}

func TestArmTwiceFails(t *testing.T) {
	net := topology.NewStar(1, 2, pfcOnlyOpts())
	in := faults.NewInjector(net, 1)
	plan := faults.Plan{{Kind: faults.PauseStorm, Target: "H1", Duration: simtime.Millisecond}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(plan); err == nil {
		t.Fatal("second Arm succeeded; want error")
	}
}
