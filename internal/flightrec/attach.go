package flightrec

import (
	"fmt"

	"dcqcn/internal/fabric"
	"dcqcn/internal/hooks"
	"dcqcn/internal/link"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// armed is the process-wide arming state. Set it only from a
// single-threaded setup phase (CLI flag parsing, test setup) before any
// run starts: parallel sweep workers read topology.OnBuild, and the
// happens-before edge is worker-goroutine creation.
var armed *Config

// Arm installs a topology.OnBuild hook so every network any scenario
// builds from now on gets a flight recorder attached. sink, if
// non-nil, receives each recorder as its network is built; pass nil
// when recording only for the side effect of provenance (the armed
// sweep) — but note a non-nil sink must be safe for the caller's own
// concurrency (a parallel sweep calls it from worker goroutines).
// Disarm undoes it. Arm replaces any previous arming.
func Arm(cfg Config, sink func(*Recorder)) {
	c := cfg
	armed = &c
	topology.OnBuild = func(n *topology.Network) {
		r := Attach(n, c)
		if sink != nil {
			sink(r)
		}
	}
}

// Disarm removes the build hook installed by Arm.
func Disarm() {
	armed = nil
	topology.OnBuild = nil
}

// Armed reports whether Arm is in effect — recorded in sweep
// provenance as flightrec_armed.
func Armed() bool { return armed != nil }

// Attach wires a recorder into every connected port, switch, NIC and
// link of a built network, plus the fault-injection observer, and
// returns it. All taps go through the chaining hook helpers, so the
// recorder composes with the conservation auditor on the same
// ports regardless of attach order.
func Attach(net *topology.Network, cfg Config) *Recorder {
	r := newRecorder(net, cfg)

	// Pass 1: register metadata for every port, switches first, so peer
	// resolution in pass 2 sees both ends of every wire.
	owner := make(map[*link.Port]string)
	for _, name := range net.SwitchNames() {
		sw := net.Switch(name)
		for i := 0; i < sw.NumPorts(); i++ {
			owner[sw.Port(i)] = name
		}
	}
	for _, name := range net.HostNames() {
		owner[net.Host(name).Port()] = name
	}
	register := func(port *link.Port, node string, host bool) {
		info := PortInfo{Port: port.Name, Node: node, Host: host}
		if peer := port.Peer(); peer != nil {
			info.Peer = peer.Name
			info.PeerNode = owner[peer]
		}
		r.meta[port.Name] = info
		r.ports = append(r.ports, info)
		r.nodePorts[node] = append(r.nodePorts[node], port.Name)
	}
	for _, name := range net.SwitchNames() {
		r.nodes = append(r.nodes, name)
		sw := net.Switch(name)
		for i := 0; i < sw.NumPorts(); i++ {
			register(sw.Port(i), name, false)
		}
	}
	for _, name := range net.HostNames() {
		r.nodes = append(r.nodes, name)
		register(net.Host(name).Port(), name, true)
	}

	// Pass 2: install the taps.
	for _, name := range net.SwitchNames() {
		sw := net.Switch(name)
		for i := 0; i < sw.NumPorts(); i++ {
			if sw.Port(i).Connected() {
				r.tapPort(sw.Port(i), false)
			}
		}
		r.tapSwitch(sw)
	}
	for _, name := range net.HostNames() {
		h := net.Host(name)
		r.tapPort(h.Port(), true)
		r.tapNIC(h)
		r.tapLink(net.HostLink(name))
	}
	for _, l := range net.FabricLinks() {
		r.tapLink(l)
	}
	r.tapFaults(net)
	return r
}

// tapPort records egress-FIFO entries, departures and — on the receive
// side — PFC XOFF/XON and (for host ports) CNP deliveries.
func (r *Recorder) tapPort(port *link.Port, host bool) {
	id := r.intern(port.Name)
	port.ChainOnEnqueue(func(p *packet.Packet) {
		r.record(KindEnqueue, id, p.Type, p.Flow, p.PSN, p.Size, p.Priority, 0, 0)
	})
	port.ChainOnDeparture(func(p *packet.Packet) {
		r.record(KindDequeue, id, p.Type, p.Flow, p.PSN, p.Size, p.Priority, 0, 0)
	})
	port.ChainOnRx(func(p *packet.Packet) {
		switch p.Type {
		case packet.Pause:
			r.record(KindXoff, id, p.Type, 0, 0, p.Size, p.PausePrio, 0, 0)
		case packet.Resume:
			r.record(KindXon, id, p.Type, 0, 0, p.Size, p.PausePrio, 0, 0)
		case packet.CNP:
			if host {
				r.record(KindCNPRecv, id, p.Type, p.Flow, 0, p.Size, p.Priority, 0, 0)
			}
		}
	})
}

// tapSwitch records admission drops (attributed to the ingress port)
// and CE marks (attributed to the egress port).
func (r *Recorder) tapSwitch(sw *fabric.Switch) {
	ids := make([]uint32, sw.NumPorts())
	for i := range ids {
		ids[i] = r.intern(sw.Port(i).Name)
	}
	sw.OnDrop = hooks.Chain2(sw.OnDrop, func(p *packet.Packet, inPort int) {
		r.record(KindDrop, ids[inPort], p.Type, p.Flow, p.PSN, p.Size, p.Priority, 0, 0)
	})
	sw.OnMark = hooks.Chain2(sw.OnMark, func(p *packet.Packet, outPort int) {
		r.record(KindMark, ids[outPort], p.Type, p.Flow, p.PSN, p.Size, p.Priority, 0, 0)
	})
}

// tapNIC records CNP emissions and rate-limiter updates at the host's
// port.
func (r *Recorder) tapNIC(h *nic.NIC) {
	id := r.intern(h.Port().Name)
	h.OnCNPEmit = hooks.Chain(h.OnCNPEmit, func(p *packet.Packet) {
		r.record(KindCNPEmit, id, p.Type, p.Flow, 0, p.Size, p.Priority, 0, 0)
	})
	h.OnRateUpdate = hooks.Chain2(h.OnRateUpdate, func(flow packet.FlowID, rate simtime.Rate) {
		r.record(KindRate, id, packet.Data, flow, 0, 0, 0, int64(rate), 0)
	})
}

// tapLink records frames the link destroys, attributed to the
// transmitting port with the drop reason as label.
func (r *Recorder) tapLink(l *link.Link) {
	reasons := [...]uint32{
		r.intern(link.DropLinkDown.String()),
		r.intern(link.DropFaultHook.String()),
		r.intern(link.DropRandomLoss.String()),
		r.intern(link.DropFlapEpoch.String()),
	}
	l.OnDrop = hooks.Chain3(l.OnDrop, func(from *link.Port, pkt *packet.Packet, reason link.DropReason) {
		label := reasons[0]
		if int(reason) < len(reasons) {
			label = reasons[reason]
		}
		r.record(KindLinkDrop, r.intern(from.Name), pkt.Type, pkt.Flow, pkt.PSN, pkt.Size, pkt.Priority, int64(reason), label)
	})
}

// tapFaults records injector transitions as portless events labelled
// "kind/target/phase".
func (r *Recorder) tapFaults(net *topology.Network) {
	none := r.intern("")
	net.OnFault = hooks.Chain4(net.OnFault, func(index int, kind, target, phase string) {
		label := r.intern(fmt.Sprintf("%s/%s/%s", kind, target, phase))
		r.record(KindFault, none, packet.Data, 0, 0, 0, 0, int64(index), label)
	})
}
