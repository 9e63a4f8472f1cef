// Package hybrid implements fluid/packet co-simulation: long-lived
// background flows — thousands to millions of them — are modeled as
// symmetric DCQCN flow classes stepped by the §5 fluid equations
// (internal/fluid.Law), while foreground flows of interest stay fully
// packet-level. The two layers interact in both directions through the
// switches of one topology.Network:
//
//   - fluid → packet: each (switch, egress port) a background class
//     crosses carries a fluid queue. Its occupancy is exported to the
//     switch through the fabric.Switch FluidEgress/FluidOccupied hooks,
//     so admission, the dynamic PFC threshold and the RED/ECN marking
//     law all see (packet bytes + fluid bytes) against the shared
//     buffer — foreground traffic is genuinely squeezed by background
//     load it can never observe packet by packet.
//
//   - packet → fluid: each integration step measures the packet bytes
//     the port actually transmitted since the previous step; the fluid
//     classes contend only for the residual capacity, and the marking
//     probability they react to (through the same RP law, with the same
//     feedback delay τ*) is computed from the combined queue. A class
//     crossing several hops sees the path probability
//     1 − Π_h (1 − p_hop).
//
// The integrator runs as ordinary control-class engine events on a
// fixed simtime cadence (Config.Step), so it is deterministic, shows up
// in the run digest, and observes the fabric before same-instant model
// events (control events fire first at equal timestamps). One step
// costs O(ports + classes) regardless of how many flows each class
// aggregates: a million background flows cost the same as ten.
package hybrid

import (
	"fmt"
	"math"

	"dcqcn/internal/core"
	"dcqcn/internal/fabric"
	"dcqcn/internal/fluid"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// Config parameterizes the substrate.
type Config struct {
	// Params is the DCQCN parameter set the background classes run —
	// their RP law and the marking law used to convert fluid queue
	// occupancy into marking pressure. Zero value: core.DefaultParams.
	Params core.Params
	// MTUBytes converts between bit and packet rates (default 1500).
	MTUBytes int
	// Step is the integration cadence (default 10 µs).
	Step simtime.Duration
	// FeedbackDelay is the control-loop delay τ* the background classes
	// see (default 50 µs, the paper's production value).
	FeedbackDelay simtime.Duration
}

// DefaultConfig returns the production substrate configuration.
func DefaultConfig() Config {
	return Config{
		Params:        core.DefaultParams(),
		MTUBytes:      1500,
		Step:          10 * simtime.Microsecond,
		FeedbackDelay: 50 * simtime.Microsecond,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Params.LineRate <= 0 {
		c.Params = d.Params
	}
	if c.MTUBytes == 0 {
		c.MTUBytes = d.MTUBytes
	}
	if c.Step <= 0 {
		c.Step = d.Step
	}
	if c.FeedbackDelay <= 0 {
		c.FeedbackDelay = d.FeedbackDelay
	}
	return c
}

// ClassSpec describes one symmetric background flow class: Flows
// long-lived DCQCN flows from Src to Dst, all sharing one ECMP path and
// one fluid state. Cost is independent of Flows.
type ClassSpec struct {
	Src, Dst string
	Flows    int
	// SrcPort seeds the class's representative 5-tuple, steering its
	// ECMP placement. Zero picks a default derived from the class index.
	SrcPort uint16
	// InitialRate is the per-flow starting rate (0: line rate, the
	// hardware reset value).
	InitialRate simtime.Rate
}

// portState is one (switch, egress port) hop carrying fluid traffic.
type portState struct {
	port         *link.Port
	sw           *swState
	out          int
	capacityPkts float64 // port line rate, packets/s
	maxQ         float64 // fluid queue saturation, bytes
	lastTx       int64   // packet TxBytes at the previous step
	q            float64 // fluid queue, bytes
	qInt         int64   // q as the switch hooks read it
	arrivals     float64 // scratch: Σ class rates crossing, packets/s
	avail        float64 // scratch: residual capacity, packets/s
	pNow         float64 // scratch: marking probability this step
}

// swState aggregates the fluid presence on one switch for the hook
// closures: per-egress-port bytes and their shared-buffer total.
type swState struct {
	sw       *fabric.Switch
	egress   []int64 // per egress port, PrioData class
	occupied int64
}

// classState is one background class's live fluid state.
type classState struct {
	flows float64
	state fluid.FlowState
	hops  []int // indices into Substrate.ports
	// Delay lines of length FeedbackDelay/Step: path marking
	// probability and own rate, read τ* after they were written.
	pHist  []float64
	rcHist []float64
	// drive is the law's drive for the delayed inputs whose
	// math.Float64bits are pKey and rcKey. Attach seeds it from the
	// delay lines' initial contents; tick recomputes it only when the
	// inputs it reads differ from these in some bit.
	drive       fluid.Drive
	pKey, rcKey uint64
}

// Substrate is an attached fluid background-traffic layer on one
// network. Create with Attach or AttachBackground.
type Substrate struct {
	cfg      Config
	law      fluid.Law
	dt       float64
	mtuBytes float64
	classes  []classState
	ports    []portState
	switches []*swState
	steps    uint64
	total    int
}

// Attach builds the substrate for the given classes and couples it into
// the network: fluid queues are placed on every (switch, egress port)
// the class paths cross, the switches' Fluid* hooks are installed, and
// the integrator is scheduled on the network's control simulator. With
// no effective classes (all zero Flows) nothing attaches and nothing is
// scheduled — the run digest is bit-identical to an unarmed run.
func Attach(net *topology.Network, cfg Config, specs []ClassSpec) *Substrate {
	cfg = cfg.withDefaults()
	s := &Substrate{
		cfg:      cfg,
		law:      fluid.NewLaw(cfg.Params, cfg.MTUBytes),
		dt:       cfg.Step.Seconds(),
		mtuBytes: float64(cfg.MTUBytes),
	}
	swIndex := make(map[*fabric.Switch]int)
	portIndex := make(map[*link.Port]int)
	for i, spec := range specs {
		if spec.Flows <= 0 {
			continue
		}
		srcPort := spec.SrcPort
		if srcPort == 0 {
			srcPort = uint16(49152 + i*7)
		}
		hops := net.PathPorts(spec.Src, spec.Dst, srcPort)
		c := classState{
			flows: float64(spec.Flows),
			pHist: make([]float64, s.delaySteps()),
		}
		c.rcHist = make([]float64, len(c.pHist))
		rate := spec.InitialRate
		if rate <= 0 {
			rate = cfg.Params.LineRate
		}
		c.state = s.law.InitialState(rate)
		for i := range c.rcHist {
			c.rcHist[i] = c.state.RC
		}
		c.redrive(&s.law, c.pHist[0], c.rcHist[0])
		for _, hop := range hops {
			c.hops = append(c.hops, s.internPort(hop, swIndex, portIndex))
		}
		s.classes = append(s.classes, c)
		s.total += spec.Flows
	}
	if len(s.classes) == 0 {
		return s
	}
	for _, st := range s.switches {
		st := st
		st.sw.FluidEgress = func(port int, prio uint8) int64 {
			if prio != packet.PrioData {
				return 0
			}
			return st.egress[port]
		}
		st.sw.FluidOccupied = func() int64 { return st.occupied }
	}
	net.Sim.Ticker(cfg.Step, s.tick)
	return s
}

// delaySteps returns the delay-line length, at least 1.
func (s *Substrate) delaySteps() int {
	n := int(s.cfg.FeedbackDelay / s.cfg.Step)
	if n < 1 {
		n = 1
	}
	return n
}

// internPort returns the index of the portState for one path hop,
// creating switch and port records on first sight.
func (s *Substrate) internPort(hop topology.SwitchPort, swIndex map[*fabric.Switch]int, portIndex map[*link.Port]int) int {
	lp := hop.Switch.Port(hop.Port)
	if idx, ok := portIndex[lp]; ok {
		return idx
	}
	si, ok := swIndex[hop.Switch]
	if !ok {
		si = len(s.switches)
		swIndex[hop.Switch] = si
		s.switches = append(s.switches, &swState{
			sw:     hop.Switch,
			egress: make([]int64, hop.Switch.NumPorts()),
		})
	}
	spec := hop.Switch.Config().Spec
	idx := len(s.ports)
	s.ports = append(s.ports, portState{
		port:         lp,
		sw:           s.switches[si],
		out:          hop.Port,
		capacityPkts: float64(spec.LineRate) / (s.mtuBytes * 8),
		// In overload the fluid queue saturates instead of growing
		// without bound; marking pressure is already pinned at 1 far
		// below this. The cap is each port's share of HALF the shared
		// buffer: real background senders would be PFC-paused long
		// before exhausting it, so the fluid side must never occupy
		// enough to starve packet admission — even with fluid classes
		// on every port, half the buffer stays available and the
		// foreground keeps flowing.
		maxQ:   float64(spec.BufferBytes) / (2 * float64(hop.Switch.NumPorts())),
		lastTx: lp.Stats.TxBytes,
	})
	portIndex[lp] = idx
	return idx
}

// tick advances the substrate by one integration step. It runs as a
// control-class engine event every Config.Step of simulated time.
//
//hot:path
func (s *Substrate) tick(now simtime.Time) {
	dt := s.dt
	// Residual capacity per port: line rate minus the packet bytes the
	// port actually moved since the previous step.
	for i := range s.ports {
		p := &s.ports[i]
		tx := p.port.Stats.TxBytes
		drained := float64(tx-p.lastTx) / s.mtuBytes / dt
		p.lastTx = tx
		avail := p.capacityPkts - drained
		if avail < 0 {
			avail = 0
		}
		p.avail = avail
		p.arrivals = 0
	}
	// Class arrival rates land on every hop they cross.
	for i := range s.classes {
		c := &s.classes[i]
		rate := c.flows * c.state.RC
		for _, h := range c.hops {
			s.ports[h].arrivals += rate
		}
	}
	// Queue evolution and marking pressure. The marking probability is
	// read from the combined (packet + fluid) queue before the fluid
	// queue steps, mirroring fluid.Solve's read-then-step order.
	for i := range s.ports {
		p := &s.ports[i]
		combined := p.qInt + p.sw.sw.EgressQueue(p.out, packet.PrioData)
		p.pNow = s.law.Params.MarkingProbability(combined)
		p.q = s.law.StepQueue(p.q, p.arrivals, p.avail, dt, p.maxQ)
		delta := int64(p.q) - p.qInt
		p.qInt += delta
		p.sw.egress[p.out] = p.qInt
		p.sw.occupied += delta
	}
	// Classes react to the path marking probability of τ* ago through
	// the same RP law the packet-level NICs implement. The law's
	// transcendental half depends on the delayed inputs alone, so a
	// class whose inputs repeat bit for bit (in overload, nearly every
	// step) applies the drive it already has: a pure function given
	// equal bits returns equal bits, so nothing the step computes moves.
	for i := range s.classes {
		c := &s.classes[i]
		keep := 1.0
		for _, h := range c.hops {
			keep *= 1 - s.ports[h].pNow
		}
		h := int(s.steps % uint64(len(c.pHist)))
		pDel, rcDel := c.pHist[h], c.rcHist[h]
		c.pHist[h] = 1 - keep
		c.rcHist[h] = c.state.RC
		if math.Float64bits(pDel) != c.pKey || math.Float64bits(rcDel) != c.rcKey {
			c.redrive(&s.law, pDel, rcDel)
		}
		s.law.Apply(&c.state, &c.drive, dt)
	}
	s.steps++
}

// redrive computes the class's drive for the delayed inputs pDel and
// rcDel and keys it by their bits.
//
//hot:path
func (c *classState) redrive(law *fluid.Law, pDel, rcDel float64) {
	law.Drive(&c.drive, law.Delay(pDel), rcDel)
	c.pKey, c.rcKey = math.Float64bits(pDel), math.Float64bits(rcDel)
}

// Active reports whether the substrate attached any flow class (and is
// therefore scheduling events and coupling into switches).
func (s *Substrate) Active() bool { return len(s.classes) > 0 }

// TotalFlows returns the number of background flows modeled.
func (s *Substrate) TotalFlows() int { return s.total }

// Classes returns the number of attached flow classes.
func (s *Substrate) Classes() int { return len(s.classes) }

// Ports returns the number of (switch, egress port) hops carrying
// fluid queues.
func (s *Substrate) Ports() int { return len(s.ports) }

// Steps returns the number of integration steps executed so far.
func (s *Substrate) Steps() uint64 { return s.steps }

// BackgroundRate returns the instantaneous aggregate background
// offered rate in bits/s.
func (s *Substrate) BackgroundRate() simtime.Rate {
	var sum float64
	for i := range s.classes {
		c := &s.classes[i]
		sum += s.law.BitRate(c.flows * c.state.RC)
	}
	return simtime.Rate(sum)
}

// ClassRate returns class i's per-flow rate in bits/s.
func (s *Substrate) ClassRate(i int) simtime.Rate {
	return simtime.Rate(s.law.BitRate(s.classes[i].state.RC))
}

// FluidQueueBytes returns the fluid queue standing on the named
// switch's egress port, or 0 if no class crosses it.
func (s *Substrate) FluidQueueBytes(sw string, port int) int64 {
	for _, st := range s.switches {
		if st.sw.Name == sw && port < len(st.egress) {
			return st.egress[port]
		}
	}
	return 0
}

// FluidOccupiedBytes returns the fluid share of the named switch's
// buffer occupancy.
func (s *Substrate) FluidOccupiedBytes(sw string) int64 {
	for _, st := range s.switches {
		if st.sw.Name == sw {
			return st.occupied
		}
	}
	return 0
}

// AttachBackground attaches a default substrate carrying total
// long-lived background flows: hosts pair up deterministically (host i
// sends to host (i+n/2) mod n in creation order), one class per source
// host, flows split as evenly as possible. It is the CLI arming path
// (-hybrid -bg-flows=N) for scenarios that know nothing about hybrid
// simulation. total <= 0 or fewer than two hosts attaches nothing.
func AttachBackground(net *topology.Network, cfg Config, total int) *Substrate {
	hosts := net.HostNames()
	n := len(hosts)
	if total <= 0 || n < 2 {
		return Attach(net, cfg, nil)
	}
	classes := total
	if classes > n {
		classes = n
	}
	specs := make([]ClassSpec, classes)
	base, rem := total/classes, total%classes
	for i := range specs {
		flows := base
		if i < rem {
			flows++
		}
		specs[i] = ClassSpec{
			Src:   hosts[i],
			Dst:   hosts[(i+n/2)%n],
			Flows: flows,
		}
	}
	return Attach(net, cfg, specs)
}

// Armer returns a topology.Options.Background callback attaching a
// default substrate of total flows to every network built with it.
func Armer(cfg Config, total int) func(*topology.Network) {
	return func(net *topology.Network) {
		AttachBackground(net, cfg, total)
	}
}

// String summarizes the substrate for logs.
func (s *Substrate) String() string {
	return fmt.Sprintf("hybrid: %d flows in %d classes over %d ports (step %v)",
		s.total, len(s.classes), len(s.ports), s.cfg.Step)
}
