package main

import (
	"fmt"

	"dcqcn/internal/flightrec"
	"dcqcn/internal/hybrid"
	"dcqcn/internal/nic"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
	trafficgen "dcqcn/internal/workload"
)

// A workload is one simulation the benchmark builds from the outside,
// through the simulator's public entry points only. Every rep of a
// workload is a fresh simulation from the run seed, so all reps of one
// (workload, seed) are the same simulation and must agree exactly.
type workload struct {
	name string
	why  string
	// horizon is simulated time: the run span executes Sim.Run up to it.
	horizon simtime.Duration
	// build constructs the network and attaches any substrate or
	// recorder (the topology.build_s span); inject opens the flows and
	// posts the first messages (the workload.inject_s span).
	build  func(seed int64) *rig
	inject func(r *rig, seed int64)
	// check returns why a finished rep is wrong, or "".
	check func(r *rig, c counts) string
}

// rig is one built simulation plus the handles the benchmark reads its
// counters from after the run.
type rig struct {
	net *topology.Network
	sub *hybrid.Substrate
	rec *flightrec.Recorder
	// recvs are the incast receivers; each must have received data.
	recvs []*nic.NIC
	// flows holds every flow still open: long-lived flows, and one slot
	// per user pair holding that pair's current transfer.
	flows []*nic.Flow
	// closed sums the sender counters of flows closed during the run.
	closed rocev2.SenderStats
	opened int64
}

func (r *rig) open(src, dst *nic.NIC) *nic.Flow {
	r.opened++
	return src.OpenFlow(dst.ID)
}

// retire folds a finished flow's counters into the rig and closes it.
func (r *rig) retire(f *nic.Flow) {
	addSender(&r.closed, f.Stats())
	f.Close()
}

// closedLoop keeps depth messages of size bytes outstanding on f: each
// completion posts the next.
func closedLoop(f *nic.Flow, size int64, depth int) {
	var again func(rocev2.Completion)
	again = func(rocev2.Completion) { f.PostMessage(size, again) }
	for i := 0; i < depth; i++ {
		f.PostMessage(size, again)
	}
}

const (
	chunkBytes   = 2 * 1000 * 1000 // incast message size
	userPairs    = 20              // §6.2 communicating pairs
	incastDegree = 10              // §6.2 disk-rebuild incast
	incastDepth  = 8               // rebuild reads in flight per sender
	bgFlows      = 1_000_000       // hybrid-1m fluid background flows
	// recorderBytes caps pfc-storm-recorded's flight-recorder ring at
	// about the last 20k events. Every seed records far more (at least
	// ~800k events, ~10 MB encoded), so the ring wraps on every seed and
	// its live size does not depend on how big a storm the seed draws.
	// Evicted chunks stay reachable until the ring's chunk list is next
	// reallocated, so the ring holds between one and two caps; a small
	// cap keeps that swing small against the simulation's own heap.
	recorderBytes = 256 << 10
)

// workloads returns the benchmark's workloads in their fixed round-robin
// order.
func workloads() []workload {
	return []workload{
		{
			name:    "clos-incast",
			why:     "27:1 incast of 2 MB loops on the Fig. 2 Clos for 20 ms simulated: no flow churn, the per-packet path (eventq, engine, link, fabric, DCQCN) does the work",
			horizon: 20 * simtime.Millisecond,
			build: func(seed int64) *rig {
				opts := topology.DefaultOptions()
				opts.HostsPerToR = 9
				opts.ECMPSeedBase = uint64(seed)
				return &rig{net: topology.NewTestbed(seed, opts)}
			},
			inject: func(r *rig, _ int64) {
				recv := r.net.Host("H11")
				r.recvs = []*nic.NIC{recv}
				for _, name := range r.net.HostNames() {
					if r.net.HostToR(name).Name == "T1" {
						continue
					}
					f := r.open(r.net.Host(name), recv)
					r.flows = append(r.flows, f)
					closedLoop(f, chunkBytes, 1)
				}
			},
			check: checkCommon,
		},
		{
			name:    "clos-benchmark",
			why:     "Section 6.2 traffic for 8 ms simulated: 20 user pairs open and close a flow per transfer beside a 10:1 incast, adding per-flow setup and teardown to the packet path",
			horizon: 8 * simtime.Millisecond,
			build: func(seed int64) *rig {
				return &rig{net: topology.NewTestbed(seed, testbedOptions(seed, false))}
			},
			inject: injectBenchmark,
			check:  checkCommon,
		},
		{
			name:    "pfc-storm-recorded",
			why:     "the clos-benchmark traffic in PFC-only mode with a 256 KB flight-recorder ring: no CNPs, PAUSE cascades to the spines, every queue and pause transition is recorded",
			horizon: 8 * simtime.Millisecond,
			build: func(seed int64) *rig {
				r := &rig{net: topology.NewTestbed(seed, testbedOptions(seed, true))}
				r.rec = flightrec.Attach(r.net, flightrec.Config{MaxBytes: recorderBytes})
				return r
			},
			inject: injectBenchmark,
			check: func(r *rig, c counts) string {
				if c.SpinePauses == 0 {
					return "no PAUSE reached the spines"
				}
				return checkCommon(r, c)
			},
		},
		{
			name:    "hybrid-1m",
			why:     "8:1 incast of 2 MB loops on a star over 1,000,000 fluid background flows for 400 ms simulated: fluid steps dominate, the packet path is mostly idle",
			horizon: 400 * simtime.Millisecond,
			build: func(seed int64) *rig {
				opts := topology.DefaultOptions()
				r := &rig{net: topology.NewStar(seed, 9, opts)}
				hcfg := hybrid.DefaultConfig()
				hcfg.Params = opts.Switch.Marking
				r.sub = hybrid.AttachBackground(r.net, hcfg, bgFlows)
				return r
			},
			inject: func(r *rig, _ int64) {
				recv := r.net.Host("H9")
				r.recvs = []*nic.NIC{recv}
				for i := 1; i <= 8; i++ {
					f := r.open(r.net.Host(fmt.Sprintf("H%d", i)), recv)
					r.flows = append(r.flows, f)
					closedLoop(f, chunkBytes, 1)
				}
			},
			check: func(r *rig, c counts) string {
				// The run ends with the clock at the horizon.
				if want := int64(r.net.Sim.Now()) / int64(hybrid.DefaultConfig().Step); c.HybridSteps != want {
					return fmt.Sprintf("hybrid.steps = %d, want %d", c.HybridSteps, want)
				}
				return checkCommon(r, c)
			},
		},
	}
}

// testbedOptions configures the 20-host Fig. 2 testbed: DCQCN defaults,
// or the paper's PFC-only baseline (line-rate senders, no ECN marking,
// no CNPs).
func testbedOptions(seed int64, pfcOnly bool) topology.Options {
	opts := topology.DefaultOptions()
	opts.ECMPSeedBase = uint64(seed)
	if pfcOnly {
		opts.NIC.Controller = nic.FixedRateFactory(40 * simtime.Gbps)
		opts.NIC.NPEnabled = false
		opts.Switch.Marking.KMin = 1 << 40
		opts.Switch.Marking.KMax = 1 << 40
	}
	return opts
}

// injectBenchmark starts the §6.2 traffic: a 10:1 incast of 2 MB reads
// at depth 8 into one receiver, plus closed-loop user pairs whose every
// transfer runs on a fresh flow closed on completion. Placement and
// sizes come from streams derived from the seed only.
func injectBenchmark(r *rig, seed int64) {
	net := r.net
	dist := trafficgen.StorageTraceDist()
	rng := net.Sim.NewStream(seed*6151 + 17)
	hosts := net.HostNames()
	perm := rng.Perm(len(hosts))
	recv := net.Host(hosts[perm[0]])
	r.recvs = []*nic.NIC{recv}
	for i := 1; i <= incastDegree; i++ {
		f := r.open(net.Host(hosts[perm[i]]), recv)
		r.flows = append(r.flows, f)
		closedLoop(f, chunkBytes, incastDepth)
	}
	for i := 0; i < userPairs; i++ {
		src := rng.Intn(len(hosts))
		dst := src
		for dst == src {
			dst = rng.Intn(len(hosts))
		}
		sizes := net.Sim.NewStream(seed*6151 + int64(i+1)*16807 + 29)
		s, d := net.Host(hosts[src]), net.Host(hosts[dst])
		slot := len(r.flows)
		r.flows = append(r.flows, nil)
		var next func()
		next = func() {
			f := r.open(s, d)
			r.flows[slot] = f
			f.PostMessage(dist.Sample(sizes), func(rocev2.Completion) {
				r.retire(f)
				next()
			})
		}
		next()
	}
}

// checkCommon holds for every workload: PFC keeps the fabric lossless
// and every incast receiver got data.
func checkCommon(r *rig, c counts) string {
	if c.Drops != 0 {
		return fmt.Sprintf("%d switch drops on a lossless fabric", c.Drops)
	}
	for _, h := range r.recvs {
		if h.Stats.DataReceived == 0 {
			return "receiver " + h.Name + " got no data"
		}
	}
	return ""
}

// counts are the exact per-layer counters of one rep, read from public
// accessors after the run. Two reps of the same simulation must agree
// on every field.
type counts struct {
	Events          int64
	PendingPeak     int64
	LinkFrames      int64
	LinkPauseFrames int64
	Forwarded       int64
	EcnMarked       int64
	PauseSent       int64
	Drops           int64
	SpinePauses     int64
	CNPsSent        int64
	CNPsReceived    int64
	PacketsSent     int64
	Retransmits     int64
	Completions     int64
	FlowsOpened     int64
	WireBytes       int64
	PayloadAcked    int64
	HybridSteps     int64
	Recorded        int64
}

func addSender(dst *rocev2.SenderStats, s rocev2.SenderStats) {
	dst.PacketsSent += s.PacketsSent
	dst.BytesSent += s.BytesSent
	dst.PayloadAcked += s.PayloadAcked
	dst.Retransmits += s.Retransmits
	dst.Completions += s.Completions
}

func collect(r *rig, pendingPeak int) counts {
	net := r.net
	c := counts{Events: int64(net.Sim.Events()), PendingPeak: int64(pendingPeak), FlowsOpened: r.opened}
	for _, name := range net.SwitchNames() {
		sw := net.Switch(name)
		c.Forwarded += sw.Stats.Forwarded
		c.EcnMarked += sw.Stats.EcnMarked
		c.PauseSent += sw.Stats.PauseSent
		c.Drops += sw.Stats.Drops
		for i := 0; i < sw.NumPorts(); i++ {
			ps := sw.PortStats(i)
			c.LinkFrames += ps.TxPackets
			c.LinkPauseFrames += ps.PauseTx
		}
		if name == "S1" || name == "S2" {
			c.SpinePauses += sw.PauseReceived()
		}
	}
	for _, name := range net.HostNames() {
		h := net.Host(name)
		c.CNPsSent += h.Stats.CNPsSent
		c.CNPsReceived += h.Stats.CNPsReceived
		c.LinkFrames += h.Port().Stats.TxPackets
		c.LinkPauseFrames += h.Port().Stats.PauseTx
	}
	s := r.closed
	for _, f := range r.flows {
		addSender(&s, f.Stats())
	}
	c.PacketsSent, c.Retransmits, c.Completions = s.PacketsSent, s.Retransmits, s.Completions
	c.WireBytes, c.PayloadAcked = s.BytesSent, s.PayloadAcked
	if r.sub != nil {
		c.HybridSteps = int64(r.sub.Steps())
	}
	if r.rec != nil {
		c.Recorded = int64(r.rec.EventsRecorded())
	}
	return c
}
