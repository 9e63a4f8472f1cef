package main

import (
	"runtime"
	"slices"
	"time"

	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/eventq"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
)

// Drills time single public entry points in isolation, in host
// nanoseconds and heap allocations per operation.

// drillTrials is how many timed trials a drill runs; it reports the
// fastest, since host noise only adds time.
const drillTrials = 5

// drill runs op ops times per trial and returns ns/op (fastest trial)
// and allocs/op (from runtime.MemStats, exact).
func drill(ops int, op func(i int)) (ns, allocs float64) {
	op(0) // first-use set-up outside the timing
	times := make([]float64, drillTrials)
	var ms runtime.MemStats
	for t := range times {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for i := 0; i < ops; i++ {
			op(i)
		}
		times[t] = float64(time.Since(start).Nanoseconds()) / float64(ops)
		runtime.ReadMemStats(&ms)
		allocs = float64(ms.Mallocs-before) / float64(ops)
	}
	return slices.Min(times), allocs
}

// stubClock satisfies core.Clock without an event queue: time stands
// still and timers never fire, so a drill times only the call itself.
type stubClock struct{}

func (stubClock) Now() simtime.Time { return 0 }

func (stubClock) After(simtime.Duration, func()) func() { return noop }

func noop() {}

// eventqDrill times one Queue.Pop plus one PushKeyed at a steady queue
// depth, the hold model of a running simulation.
func eventqDrill(depth int) (ns, allocs float64) {
	depth = max(depth, 1)
	rng := engine.New(1).NewStream(1)
	gaps := make([]simtime.Duration, 4096)
	for i := range gaps {
		gaps[i] = simtime.Duration(rng.Int63n(int64(20 * simtime.Microsecond)))
	}
	var q eventq.Queue
	for i := 0; i < depth; i++ {
		q.PushKeyed(simtime.Time(gaps[i%len(gaps)]), eventq.Key{Class: eventq.ClassLocal, K1: uint64(i)}, noop)
	}
	k := uint64(depth)
	return drill(200_000, func(i int) {
		e := q.Pop()
		k++
		q.PushKeyed(e.At.Add(gaps[i%len(gaps)]), eventq.Key{Class: eventq.ClassLocal, K1: k}, noop)
	})
}

// rpDrill times the DCQCN reaction point's CNP handling (Eq. 1 cut plus
// timer re-arm); every 32nd op resets the flow to line rate so cuts
// keep landing on a live rate.
func rpDrill() float64 {
	rp := core.NewRP(core.DefaultParams(), stubClock{})
	ns, _ := drill(200_000, func(i int) {
		if i%32 == 0 {
			rp.Stop()
		}
		rp.OnCNP()
	})
	return ns
}

// cpDrill times the switch marking decision across the RED ramp.
func cpDrill() float64 {
	params := core.DefaultParams()
	cp := core.NewCP(params, engine.New(1).NewStream(2).Float64)
	queues := make([]int64, 1024)
	for i := range queues {
		queues[i] = params.KMin + (params.KMax-params.KMin)*int64(i)/int64(len(queues))
	}
	ns, _ := drill(1_000_000, func(i int) { cp.ShouldMark(queues[i%len(queues)]) })
	return ns
}

// buildNextDrill times one data packet through a RoCEv2 sender:
// BuildNext plus the OnAck that retires it, uncontrolled (FixedRate).
func buildNextDrill() float64 {
	tuple := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 4791, Proto: 17}
	s := rocev2.NewSender(1, tuple, rocev2.DefaultConfig(), stubClock{}, rocev2.FixedRate(40*simtime.Gbps))
	s.PostMessage(1<<40, nil)
	ns, _ := drill(200_000, func(int) {
		p := s.BuildNext()
		s.OnAck(p.PSN)
	})
	return ns
}
