// Package topology builds the networks the DCQCN paper evaluates on:
// the 3-tier Clos testbed of Fig. 2 (four ToRs, four leaves, two spines,
// all 40 Gb/s), single-switch rigs for microbenchmarks, and the
// experiment-specific placements of Figs. 3, 4 and 20.
//
// Routing is computed by breadth-first search over the switch graph; all
// equal-cost next hops form an ECMP group resolved per flow by each
// switch's hash, exactly as the BGP+ECMP fabric of the paper.
package topology

import (
	"fmt"
	"sort"

	"dcqcn/internal/cc"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/link"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// Options configures network construction.
type Options struct {
	// NIC is the configuration applied to every host NIC.
	NIC nic.Config
	// Switch is the configuration applied to every switch; per-switch
	// ECMP seeds are derived from ECMPSeedBase and the switch index.
	Switch fabric.Config
	// HostLinkDelay is the host-to-ToR propagation delay.
	HostLinkDelay simtime.Duration
	// FabricLinkDelay is the switch-to-switch propagation delay.
	FabricLinkDelay simtime.Duration
	// ECMPSeedBase perturbs all switches' hash seeds; experiments sweep
	// it to randomize (or search for) ECMP placements.
	ECMPSeedBase uint64
	// HostsPerToR is used by NewTestbed (the paper's benchmark uses 5).
	HostsPerToR int
	// CC, if set, is the selected congestion-control algorithm. The NIC
	// side is configured through NIC.Controller (see ApplyCC); this field
	// additionally attaches the algorithm's fabric-side sampler — the
	// congestion point of QCN or switch-assist — to every switch at build
	// time.
	CC *cc.Selection
	// Background, if set, runs at the end of every builder, after routes
	// and CC samplers but before the OnBuild observer hook. It is
	// the attachment point for the hybrid co-simulation's fluid
	// background-traffic substrate (internal/hybrid): unlike OnBuild
	// observers it is allowed to schedule events and couple into switch
	// decisions, so it deliberately runs before passive observers arm —
	// they then see the network with its background traffic in place.
	Background func(*Network)
}

// DefaultOptions returns the paper's testbed defaults.
func DefaultOptions() Options {
	return Options{
		NIC:             nic.DefaultConfig(),
		Switch:          fabric.DefaultConfig(),
		HostLinkDelay:   500 * simtime.Nanosecond,
		FabricLinkDelay: 500 * simtime.Nanosecond,
		HostsPerToR:     5,
	}
}

// ApplyCC configures opts for the selected congestion-control algorithm.
// It is the one place an algorithm's capability set becomes NIC and
// switch settings: the NIC controller factory, the fabric-side sampler
// attachment (via Options.CC), and the signal plumbing — CNP generation
// is switched off when the controller does not consume CNPs, ACKs are
// densified for delay-based controllers, and, when adjustMarking is set,
// ECN marking is disabled for algorithms that consume neither CNPs nor
// ACK echoes (fixed-rate, delay- and hint-based ones). The PFC-only
// baseline is the fixed algorithm applied here.
func ApplyCC(opts *Options, sel cc.Selection, adjustMarking bool) {
	opts.NIC.Controller = sel.Factory()
	opts.CC = &sel
	caps := sel.Caps()
	if caps&cc.CapCNP == 0 {
		opts.NIC.NPEnabled = false
	}
	if caps&cc.CapRTT != 0 {
		opts.NIC.Transport.AckEvery = 4 // denser RTT samples
	}
	if adjustMarking && caps&(cc.CapCNP|cc.CapAckECN) == 0 {
		opts.Switch.Marking.KMin = 1 << 40 // ECN unused: fixed, delay or hint only
		opts.Switch.Marking.KMax = 1 << 40
	}
}

// OnBuild, if set, runs at the end of every topology builder (NewStar,
// NewTestbed, NewRing, NewFatTree), after wiring and route computation.
// It is the arming point for run-scoped passive observers — the flight
// recorder sets it once, before any run starts, to attach itself to
// every network a scenario builds without the scenario knowing. The
// installed function must follow the passive-observer contract (no
// scheduled events, no randomness, no model mutation) so an armed run's
// digest stays bit-identical to an unarmed one. Set it only from a
// single-threaded setup phase: it is read by parallel sweep workers.
var OnBuild func(*Network)

// Network is a wired, routed collection of switches and host NICs.
type Network struct {
	// Sim is the control handle: scenario, harness and fault-injection
	// code schedules through it. Components are built on the model-class
	// sibling handle (msim) so equal-time ordering between control and
	// model events is fixed by class, not by insertion order — see
	// internal/eventq.
	Sim      *engine.Sim
	Hosts    map[string]*nic.NIC
	Switches map[string]*fabric.Switch

	// OnFault, if set, observes fault-injector transitions on this
	// network: kind and target name the armed fault, phase is "activate"
	// or "clear", index is the fault's position in the plan. The field
	// lives here (not on the injector) so passive observers can
	// subscribe before the injector exists. Strictly passive, same
	// contract as link.Port.OnRx.
	OnFault func(index int, kind, target, phase string)

	opts      Options
	msim      *engine.Sim    // model-class handle components schedule on
	nics      *nic.Directory // every host NIC, by node ID
	hostOrder []string
	swOrder   []string
	nextID    packet.NodeID

	hostLinks   map[string]*link.Link
	fabricLinks []*link.Link

	// adjacency for route computation
	swIndex   map[*fabric.Switch]int
	swPorts   map[*fabric.Switch]int // next free port
	neighbors map[*fabric.Switch][]edge
	attached  map[*fabric.Switch][]hostEdge
	hostTors  map[string]*fabric.Switch
}

type edge struct {
	peer *fabric.Switch
	port int // local port toward peer
}

type hostEdge struct {
	host *nic.NIC
	port int
}

// NewNetwork creates an empty network on a fresh simulator.
func NewNetwork(seed int64, opts Options) *Network {
	sim := engine.New(seed)
	return &Network{
		Sim:       sim,
		msim:      sim.Model(),
		nics:      nic.NewDirectory(),
		Hosts:     make(map[string]*nic.NIC),
		Switches:  make(map[string]*fabric.Switch),
		hostLinks: make(map[string]*link.Link),
		opts:      opts,
		nextID:    1,
		swIndex:   make(map[*fabric.Switch]int),
		swPorts:   make(map[*fabric.Switch]int),
		neighbors: make(map[*fabric.Switch][]edge),
		attached:  make(map[*fabric.Switch][]hostEdge),
		hostTors:  make(map[string]*fabric.Switch),
	}
}

// AddSwitch creates a switch with capacity for ports connections.
func (n *Network) AddSwitch(name string, ports int) *fabric.Switch {
	if _, dup := n.Switches[name]; dup {
		panic("topology: duplicate switch " + name)
	}
	cfg := n.opts.Switch
	cfg.ECMPSeed = n.opts.ECMPSeedBase*2654435761 + uint64(len(n.swOrder)+1)*0x9e3779b97f4a7c15
	sw := fabric.New(n.msim, n.allocID(), name, ports, cfg)
	n.Switches[name] = sw
	n.swOrder = append(n.swOrder, name)
	n.swIndex[sw] = len(n.swOrder) - 1
	return sw
}

// AddHost creates a host NIC attached to the given switch.
func (n *Network) AddHost(name string, tor *fabric.Switch) *nic.NIC {
	if _, dup := n.Hosts[name]; dup {
		panic("topology: duplicate host " + name)
	}
	h := nic.New(n.msim, n.allocID(), name, n.opts.NIC, n.nics)
	port := n.takePort(tor)
	n.hostLinks[name] = link.Connect(n.msim, h.Port(), tor.Port(port), n.opts.HostLinkDelay)
	n.attached[tor] = append(n.attached[tor], hostEdge{host: h, port: port})
	n.hostTors[name] = tor
	n.Hosts[name] = h
	n.hostOrder = append(n.hostOrder, name)
	return h
}

// ConnectSwitches wires a fabric link between two switches.
func (n *Network) ConnectSwitches(a, b *fabric.Switch) {
	pa, pb := n.takePort(a), n.takePort(b)
	n.fabricLinks = append(n.fabricLinks, link.Connect(n.msim, a.Port(pa), b.Port(pb), n.opts.FabricLinkDelay))
	n.neighbors[a] = append(n.neighbors[a], edge{peer: b, port: pa})
	n.neighbors[b] = append(n.neighbors[b], edge{peer: a, port: pb})
}

// Host returns a host by name, panicking if absent (construction-time
// errors are programming errors in experiment definitions).
func (n *Network) Host(name string) *nic.NIC {
	h, ok := n.Hosts[name]
	if !ok {
		panic("topology: no host " + name)
	}
	return h
}

// Switch returns a switch by name, panicking if absent.
func (n *Network) Switch(name string) *fabric.Switch {
	s, ok := n.Switches[name]
	if !ok {
		panic("topology: no switch " + name)
	}
	return s
}

// HostNames returns host names in creation order.
func (n *Network) HostNames() []string { return n.hostOrder }

// SwitchNames returns switch names in creation order, for callers that
// must iterate the fabric deterministically (ranging over the Switches
// map would not be).
func (n *Network) SwitchNames() []string { return n.swOrder }

// ComputeRoutes installs shortest-path ECMP routing for every host
// destination on every switch. Must be called once after wiring.
//
// Every host behind one ToR has the same routes beyond it, so one BFS
// from each ToR finds the downhill ports of every switch toward all of
// its hosts. The routes are installed host by host, in ToR and
// attachment order.
func (n *Network) ComputeRoutes() {
	for _, tor := range n.swOrder {
		torSw := n.Switches[tor]
		hosts := n.attached[torSw]
		if len(hosts) == 0 {
			continue
		}
		downhill := n.downhillPorts(torSw)
		for _, he := range hosts {
			dst := he.host.ID
			torSw.AddRoute(dst, he.port)
			for i, name := range n.swOrder {
				if ports := downhill[i]; ports != nil {
					n.Switches[name].AddRoute(dst, ports...)
				}
			}
		}
	}
}

// downhillPorts runs a BFS from tor over the switch graph and returns,
// per switch in swOrder, the ports toward its neighbors one hop nearer
// to tor: nil for tor itself and for switches it cannot reach.
func (n *Network) downhillPorts(tor *fabric.Switch) [][]int {
	dist := make([]int, len(n.swOrder))
	for i := range dist {
		dist[i] = -1
	}
	dist[n.swIndex[tor]] = 0
	queue := []*fabric.Switch{tor}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range n.neighbors[cur] {
			if j := n.swIndex[e.peer]; dist[j] < 0 {
				dist[j] = dist[n.swIndex[cur]] + 1
				queue = append(queue, e.peer)
			}
		}
	}
	downhill := make([][]int, len(n.swOrder))
	for i, name := range n.swOrder {
		d := dist[i]
		if d <= 0 {
			continue
		}
		sw := n.Switches[name]
		for _, e := range n.neighbors[sw] {
			if dist[n.swIndex[e.peer]] == d-1 {
				downhill[i] = append(downhill[i], e.port)
			}
		}
		if downhill[i] == nil {
			panic(fmt.Sprintf("topology: no downhill neighbor from %s toward %s", sw.Name, tor.Name))
		}
	}
	return downhill
}

func (n *Network) allocID() packet.NodeID {
	id := n.nextID
	n.nextID++
	return id
}

func (n *Network) takePort(sw *fabric.Switch) int {
	p := n.swPorts[sw]
	if p >= sw.NumPorts() {
		panic(fmt.Sprintf("topology: switch %s out of ports", sw.Name))
	}
	n.swPorts[sw] = p + 1
	return p
}

// HostToR returns the switch a host attaches to.
func (n *Network) HostToR(host string) *fabric.Switch {
	tor, ok := n.hostTors[host]
	if !ok {
		panic("topology: no host " + host)
	}
	return tor
}

// SwitchPort identifies one egress port of one switch — a hop on a
// routed path through the fabric.
type SwitchPort struct {
	Switch *fabric.Switch
	Port   int
}

// PathPorts returns the (switch, egress port) hops a flow from src to
// dst traverses, in routing order, resolving each switch's ECMP choice
// with the given transport source port (RoCEv2 destination port and UDP
// protocol number, as real flows use). The hybrid co-simulation places
// fluid background flows on exactly the ports a packet flow with the
// same tuple would load.
func (n *Network) PathPorts(src, dst string, srcPort uint16) []SwitchPort {
	dstID := n.Host(dst).ID
	tuple := packet.FiveTuple{
		Src: n.Host(src).ID, Dst: dstID,
		SrcPort: srcPort, DstPort: 4791, Proto: 17,
	}
	var path []SwitchPort
	cur := n.HostToR(src)
	for hops := 0; hops <= len(n.swOrder); hops++ {
		out, ok := cur.RouteChoice(tuple)
		if !ok {
			panic(fmt.Sprintf("topology: %s has no route to host %s", cur.Name, dst))
		}
		path = append(path, SwitchPort{Switch: cur, Port: out})
		next := (*fabric.Switch)(nil)
		for _, e := range n.neighbors[cur] {
			if e.port == out {
				next = e.peer
				break
			}
		}
		if next == nil {
			return path // port leads to the destination host
		}
		cur = next
	}
	panic(fmt.Sprintf("topology: routing loop from %s to %s", src, dst))
}

// HostLink returns the link attaching a host to its ToR, e.g. to inject
// non-congestion losses (§7) or read link counters.
func (n *Network) HostLink(host string) *link.Link {
	l, ok := n.hostLinks[host]
	if !ok {
		panic("topology: no host link for " + host)
	}
	return l
}

// FabricLinks returns all switch-to-switch links in wiring order.
func (n *Network) FabricLinks() []*link.Link { return n.fabricLinks }

// SetLossRate applies a per-frame corruption probability to every link
// in the network — the random-loss environment of the paper's §7
// discussion of non-congestion losses.
func (n *Network) SetLossRate(p float64) {
	hosts := make([]string, 0, len(n.hostLinks))
	for h := range n.hostLinks {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		n.hostLinks[h].SetLossRate(p)
	}
	for _, l := range n.fabricLinks {
		l.SetLossRate(p)
	}
}

// NewTestbed builds the paper's Fig. 2 network: ToRs T1..T4 (T1,T2 in the
// left pod under leaves L1,L2; T3,T4 in the right pod under L3,L4), both
// pods joined by spines S1,S2, and HostsPerToR hosts per ToR named
// H<tor><i> (e.g. H11..H15 under T1). All links run at the switch line
// rate.
func NewTestbed(seed int64, opts Options) *Network {
	n := NewNetwork(seed, opts)
	ports := opts.HostsPerToR + 4 // hosts + 2 uplinks, slack for rigs
	if ports < 8 {
		ports = 8
	}
	for i := 1; i <= 4; i++ {
		n.AddSwitch(fmt.Sprintf("T%d", i), ports)
	}
	for i := 1; i <= 4; i++ {
		n.AddSwitch(fmt.Sprintf("L%d", i), 8)
	}
	n.AddSwitch("S1", 8)
	n.AddSwitch("S2", 8)

	// Pods: T1,T2 under L1,L2; T3,T4 under L3,L4.
	for _, w := range []struct{ tor, leaf string }{
		{"T1", "L1"}, {"T1", "L2"}, {"T2", "L1"}, {"T2", "L2"},
		{"T3", "L3"}, {"T3", "L4"}, {"T4", "L3"}, {"T4", "L4"},
	} {
		n.ConnectSwitches(n.Switch(w.tor), n.Switch(w.leaf))
	}
	// Leaves to spines.
	for _, leaf := range []string{"L1", "L2", "L3", "L4"} {
		n.ConnectSwitches(n.Switch(leaf), n.Switch("S1"))
		n.ConnectSwitches(n.Switch(leaf), n.Switch("S2"))
	}
	// Hosts: H<t><i>.
	for t := 1; t <= 4; t++ {
		for i := 1; i <= opts.HostsPerToR; i++ {
			n.AddHost(fmt.Sprintf("H%d%d", t, i), n.Switch(fmt.Sprintf("T%d", t)))
		}
	}
	n.ComputeRoutes()
	n.built()
	return n
}

// built finishes construction: it attaches the CC samplers and the
// background substrate, then fires the OnBuild observer hook. Every
// builder calls it last.
func (n *Network) built() {
	n.attachCCSamplers()
	if n.opts.Background != nil {
		n.opts.Background(n)
	}
	if OnBuild != nil {
		OnBuild(n)
	}
}

// attachCCSamplers installs the selected algorithm's fabric-side
// congestion point on every switch. Each sampler gets its own random
// stream derived from the run seed and the switch index, so a switch's
// draws depend only on the traffic it samples.
func (n *Network) attachCCSamplers() {
	sel := n.opts.CC
	if sel == nil || sel.Algorithm.Sampler == nil {
		return
	}
	for i, name := range n.swOrder {
		sw := n.Switches[name]
		var local []packet.NodeID
		for _, he := range n.attached[sw] {
			local = append(local, he.host.ID)
		}
		seed := ccStreamSeed(n.msim.Seed(), n.opts.ECMPSeedBase, i)
		ctx := cc.FabricContext{
			Switch:     name,
			LocalHosts: local,
			Rand:       n.msim.NewStream(seed).Float64,
		}
		sw.Sampler = sel.Algorithm.Sampler(sel.Params, ctx)
	}
}

// ccStreamSeed derives a per-switch sampler stream seed, kept disjoint
// from the ECMP and marking stream derivations by its own mix constants.
func ccStreamSeed(seed int64, ecmpBase uint64, swIdx int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + ecmpBase*0x517cc1b727220a95 + uint64(swIdx+1)*0xff51afd7ed558ccd
	return int64(h ^ 0xcc)
}

// NewStar builds hosts H1..Hn around a single switch SW — the rig of the
// paper's microbenchmarks (§6.1: two or three machines, one Arista
// switch; incast scaling up to 20:1).
func NewStar(seed int64, hosts int, opts Options) *Network {
	n := NewNetwork(seed, opts)
	sw := n.AddSwitch("SW", hosts)
	for i := 1; i <= hosts; i++ {
		n.AddHost(fmt.Sprintf("H%d", i), sw)
	}
	n.ComputeRoutes()
	n.built()
	return n
}

// NewRing builds n switches R1..Rn wired in a cycle, with one host
// H1..Hn attached to each. Shortest-path ECMP routing reaches a host k
// hops away over both ring directions when equidistant, so multi-hop
// flows exist whose buffer dependencies can close into a cycle — the
// cyclic-buffer-dependency topology that up-down routing on a Clos
// forbids by construction. The deadlock chaos probe runs here: pause
// storms or slow receivers on the hosts back traffic up around the
// ring until fabric.DetectPauseDeadlock finds a real wait cycle.
func NewRing(seed int64, n int, opts Options) *Network {
	if n < 3 {
		panic("topology: ring needs at least 3 switches")
	}
	net := NewNetwork(seed, opts)
	sws := make([]*fabric.Switch, n)
	for i := range sws {
		sws[i] = net.AddSwitch(fmt.Sprintf("R%d", i+1), 4)
	}
	for i := range sws {
		net.ConnectSwitches(sws[i], sws[(i+1)%n])
	}
	for i := range sws {
		net.AddHost(fmt.Sprintf("H%d", i+1), sws[i])
	}
	net.ComputeRoutes()
	net.built()
	return net
}

// NewFatTree builds a k-ary fat tree (Al-Fares et al.): k pods each with
// k/2 edge and k/2 aggregation switches, (k/2)² core switches, and k/2
// hosts per edge switch — k³/4 hosts total. k must be even and >= 2.
// Hosts are named P<pod>E<edge>H<n> (all 1-based). This generalizes the
// paper's testbed for scale studies beyond its 4-ToR Clos.
func NewFatTree(seed int64, k int, opts Options) *Network {
	if k < 2 || k%2 != 0 {
		panic("topology: fat tree arity must be even and >= 2")
	}
	n := NewNetwork(seed, opts)
	half := k / 2

	cores := make([]*fabric.Switch, half*half)
	for i := range cores {
		cores[i] = n.AddSwitch(fmt.Sprintf("C%d", i+1), k)
	}
	for p := 1; p <= k; p++ {
		var aggs, edges []*fabric.Switch
		for a := 1; a <= half; a++ {
			aggs = append(aggs, n.AddSwitch(fmt.Sprintf("P%dA%d", p, a), k))
		}
		for e := 1; e <= half; e++ {
			edges = append(edges, n.AddSwitch(fmt.Sprintf("P%dE%d", p, e), k))
		}
		// Full bipartite edge-aggregation mesh within the pod.
		for _, agg := range aggs {
			for _, edge := range edges {
				n.ConnectSwitches(edge, agg)
			}
		}
		// Aggregation a connects to core group a: cores (a-1)*half .. a*half-1.
		for a, agg := range aggs {
			for c := 0; c < half; c++ {
				n.ConnectSwitches(agg, cores[a*half+c])
			}
		}
		// Hosts.
		for e, edge := range edges {
			for h := 1; h <= half; h++ {
				n.AddHost(fmt.Sprintf("P%dE%dH%d", p, e+1, h), edge)
			}
		}
	}
	n.ComputeRoutes()
	n.built()
	return n
}
