package timely_test

import (
	"testing"

	"dcqcn/internal/cc"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/link"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/timely"
)

func TestValidation(t *testing.T) {
	if err := timely.DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*timely.Params){
		func(p *timely.Params) { p.EWMAAlpha = 0 },
		func(p *timely.Params) { p.THigh = p.TLow },
		func(p *timely.Params) { p.MinRTT = 0 },
		func(p *timely.Params) { p.AddStep = 0 },
		func(p *timely.Params) { p.Beta = 1 },
		func(p *timely.Params) { p.HAIThresh = 0 },
		func(p *timely.Params) { p.LineRate = p.MinRate },
	}
	for i, mutate := range bad {
		p := timely.DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d passed validation", i)
		}
	}
}

func TestPureController(t *testing.T) {
	c := timely.New(timely.DefaultParams())
	if c.Rate() != 40*simtime.Gbps {
		t.Fatal("TIMELY must start at line rate")
	}
	// RTT far above THigh: strong decrease.
	c.OnRTT(10 * simtime.Microsecond) // primes prevRTT
	c.OnRTT(800 * simtime.Microsecond)
	if c.Rate() >= 40*simtime.Gbps {
		t.Fatalf("no decrease above THigh: %v", c.Rate())
	}
	low := c.Rate()
	// RTT below TLow: additive increase regardless of gradient.
	for i := 0; i < 10; i++ {
		c.OnRTT(10 * simtime.Microsecond)
	}
	if c.Rate() <= low {
		t.Fatal("no increase below TLow")
	}
	// CNPs and byte counts are ignored.
	before := c.Rate()
	c.OnCNP()
	c.OnBytesSent(1 << 30)
	if c.Rate() != before {
		t.Fatal("non-RTT inputs moved the rate")
	}
}

func TestGradientBand(t *testing.T) {
	p := timely.DefaultParams()
	c := timely.New(p)
	mid := (p.TLow + p.THigh) / 2
	c.OnRTT(mid)
	// Rising RTT within the band: positive gradient -> decrease.
	c.OnRTT(mid + 20*simtime.Microsecond)
	afterRise := c.Rate()
	if afterRise >= p.LineRate {
		t.Fatal("positive gradient did not decrease rate")
	}
	// Falling RTT within the band: once the EWMA gradient turns negative,
	// increases resume; after HAIThresh consecutive ones, hyper-active
	// increase kicks in. (The EWMA needs several falling samples to shed
	// the memory of the rise.)
	rtt := mid + 20*simtime.Microsecond
	incBefore := c.Stats.Increases
	var lowest simtime.Rate = c.Rate()
	for i := 0; i < 30; i++ {
		rtt -= 4 * simtime.Microsecond
		if rtt <= p.TLow+simtime.Microsecond {
			rtt = p.TLow + simtime.Microsecond // stay inside the band
		}
		c.OnRTT(rtt)
		if c.Rate() < lowest {
			lowest = c.Rate()
		}
	}
	if c.Stats.Increases <= incBefore {
		t.Fatal("negative gradients did not trigger increases")
	}
	if c.Rate() <= lowest {
		t.Fatal("rate did not recover from its minimum under falling RTTs")
	}
	if c.Stats.HAI == 0 {
		t.Fatal("hyper-active increase never engaged")
	}
}

func TestRateFloor(t *testing.T) {
	p := timely.DefaultParams()
	c := timely.New(p)
	c.OnRTT(10 * simtime.Microsecond)
	for i := 0; i < 200; i++ {
		c.OnRTT(simtime.Duration(10) * simtime.Millisecond) // hopeless RTT
	}
	if c.Rate() != p.MinRate {
		t.Fatalf("rate %v, want pinned at floor", c.Rate())
	}
}

// TestEndToEndIncast runs TIMELY through the NIC/fabric stack: a 4:1
// incast must be brought under control purely by delay signals (no ECN).
func TestEndToEndIncast(t *testing.T) {
	sim := engine.New(31)
	swCfg := fabric.DefaultConfig()
	swCfg.Marking.KMin = 1 << 40 // no ECN: delay only
	swCfg.Marking.KMax = 1 << 40
	const degree = 4
	sw := fabric.New(sim, 1000, "sw", degree+1, swCfg)
	sel, err := cc.Select("timely", 40*simtime.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	nicCfg := nic.DefaultConfig()
	nicCfg.NPEnabled = false
	nicCfg.Transport.AckEvery = 4 // denser RTT samples
	nicCfg.Controller = sel.Factory()
	var nics []*nic.NIC
	dir := nic.NewDirectory()
	for i := 0; i <= degree; i++ {
		h := nic.New(sim, packet.NodeID(i+1), "h", nicCfg, dir)
		link.Connect(sim, h.Port(), sw.Port(i), 500*simtime.Nanosecond)
		sw.AddRoute(h.ID, i)
		nics = append(nics, h)
	}
	var flows []*nic.Flow
	for i := 0; i < degree; i++ {
		f := nics[i].OpenFlow(packet.NodeID(degree + 1))
		var post func()
		post = func() { f.PostMessage(8e6, func(rocev2.Completion) { post() }) }
		post()
		flows = append(flows, f)
	}
	sim.Run(simtime.Time(30 * simtime.Millisecond))

	// Rates pulled below line rate by delay alone.
	for i, f := range flows {
		if f.CurrentRate() >= 39*simtime.Gbps {
			t.Errorf("flow %d still at ~line rate: %v", i, f.CurrentRate())
		}
		ctrl := cc.Unwrap(f.Controller()).(*timely.Controller)
		if ctrl.Stats.Samples == 0 || ctrl.Stats.Decreases == 0 {
			t.Errorf("flow %d: no RTT-driven control (%+v)", i, ctrl.Stats)
		}
	}
	if sw.Stats.Drops != 0 {
		t.Fatal("drops under PFC")
	}
	// The queue is bounded: TIMELY holds RTT near THigh, i.e. queue near
	// THigh * linerate ≈ 1MB; allow generous slack but require it far
	// below the unbounded (PFC-threshold) regime.
	if q := sw.EgressQueue(degree, packet.PrioData); q > 4_000_000 {
		t.Fatalf("queue %dB: TIMELY failed to bound it", q)
	}
}

func TestFactoryStyleUse(t *testing.T) {
	// The controller must be independently instantiable per flow.
	a, b := timely.New(timely.DefaultParams()), timely.New(timely.DefaultParams())
	a.OnRTT(10 * simtime.Microsecond)
	a.OnRTT(simtime.Duration(2) * simtime.Millisecond)
	if b.Rate() != timely.DefaultParams().LineRate {
		t.Fatal("controllers share state")
	}
}
