package invariant

import (
	"fmt"

	"dcqcn/internal/fabric"
	"dcqcn/internal/link"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// maxRecorded caps stored violations; a broken conservation law fires
// on every subsequent packet, and the first few occurrences carry all
// the signal.
const maxRecorded = 64

// pfcPairing is the per-port XOFF/XON bookkeeping: one bit per
// priority recording whether a pause is currently asserted by the
// peer, as observed on the wire since attach.
type pfcPairing struct {
	xoffSeen [packet.NumPriorities]bool
}

// xoffSpacing is the per-port record of the XOFFs a switch port has
// sent: per priority, whether one was sent since the last XON, and
// when the last one was.
type xoffSpacing struct {
	open [packet.NumPriorities]bool
	last [packet.NumPriorities]simtime.Time
}

// flowPSN is the wire-observed PSN state of one QP.
type flowPSN struct {
	maxSent int64 // highest data PSN seen leaving the sender
	lastAck int64 // last cumulative ACK PSN seen arriving at the sender
	seen    bool  // any data observed yet
	acked   bool  // any ACK observed yet
}

// Auditor holds the observation state for one attached network. All
// checks run synchronously inside existing model callbacks; the
// auditor never schedules events or draws randomness, so the engine
// digest of an audited run is bit-identical to an unaudited one.
type Auditor struct {
	net        *topology.Network
	flows      map[packet.FlowID]*flowPSN
	violations []Violation
	truncated  int
	checks     int64
}

// Attach wires the auditor into every switch and host port of a built
// network via the passive OnRx/OnDeparture hooks (chaining any hooks
// already installed) and returns it. Call before the run starts; call
// Final or MustClean after it ends.
func Attach(net *topology.Network) *Auditor {
	a := &Auditor{net: net, flows: make(map[packet.FlowID]*flowPSN)}
	for _, name := range net.SwitchNames() {
		sw := net.Switch(name)
		for i := 0; i < sw.NumPorts(); i++ {
			a.tapSwitchPort(sw, sw.Port(i))
		}
	}
	for _, name := range net.HostNames() {
		a.tapHostPort(net.Host(name))
	}
	return a
}

// tapSwitchPort arms PFC pairing on arrivals, XOFF spacing on the
// frames the port sends, and the full shared-buffer conservation check
// after every departure of one switch port. Hooks are chained, not
// assigned, so the auditor composes with other passive observers (the
// flight recorder) on the same ports.
func (a *Auditor) tapSwitchPort(sw *fabric.Switch, port *link.Port) {
	pairing := &pfcPairing{}
	port.ChainOnRx(func(p *packet.Packet) {
		a.checkPFCPairing(pairing, port.Name, p)
	})
	spacing := &xoffSpacing{}
	port.ChainOnEnqueue(func(p *packet.Packet) {
		a.checkXOFFSpacing(spacing, port.Name, p)
	})
	port.ChainOnDeparture(func(p *packet.Packet) {
		a.checkSwitch(sw)
	})
}

// tapHostPort arms PFC pairing plus the wire-side PSN checks of one
// host NIC: data PSNs leaving the host must stay contiguous per flow
// (rewinds legal, jumps not), cumulative ACK PSNs arriving must never
// regress, and the receive backlog must never go negative.
func (a *Auditor) tapHostPort(h *nic.NIC) {
	port := h.Port()
	pairing := &pfcPairing{}
	port.ChainOnRx(func(p *packet.Packet) {
		a.checkPFCPairing(pairing, port.Name, p)
		if p.Type == packet.Ack {
			a.checkAckMonotone(h, p)
		}
		a.checkRxBacklog(h)
	})
	port.ChainOnDeparture(func(p *packet.Packet) {
		if p.Type == packet.Data {
			a.checkDataContiguity(h, p)
		}
		a.checkRxBacklog(h)
	})
}

// report records one violation, keeping the first maxRecorded.
func (a *Auditor) report(check, format string, args ...any) {
	if len(a.violations) >= maxRecorded {
		a.truncated++
		return
	}
	a.violations = append(a.violations, Violation{
		At:     a.net.Sim.Now(),
		Check:  check,
		Detail: fmt.Sprintf(format, args...),
	})
}

// checkPFCPairing enforces XOFF/XON pairing per (port, priority): an
// XON with no pause asserted is unsolicited — nothing in the model
// (nor in real PFC, where XON means "threshold recrossed") emits one.
// Repeated XOFF is a legal refresh, and a pause may end without XON
// via quanta expiry, which leaves xoffSeen set until the next
// XOFF/XON cycle; that is sound because a later unsolicited XON after
// an expired pause is indistinguishable, on the wire, from a late one.
func (a *Auditor) checkPFCPairing(st *pfcPairing, portName string, p *packet.Packet) {
	switch p.Type {
	case packet.Pause:
		a.checks++
		st.xoffSeen[p.PausePrio] = true
	case packet.Resume:
		a.checks++
		if !st.xoffSeen[p.PausePrio] {
			a.report("pfc-pairing", "port %s priority %d: XON without a preceding XOFF", portName, p.PausePrio)
		}
		st.xoffSeen[p.PausePrio] = false
	}
}

// checkXOFFSpacing enforces one XOFF refresh per (port, priority): a
// switch re-sends XOFF every half pause interval while its ingress
// queue stays above threshold, so two XOFFs less than half an interval
// apart with no XON between them mean a second refresh chain. Host
// ports are not checked: a pause-storm fault injects XOFFs from a host
// at its own period by design.
func (a *Auditor) checkXOFFSpacing(st *xoffSpacing, portName string, p *packet.Packet) {
	switch p.Type {
	case packet.Pause:
		a.checks++
		prio, now := p.PausePrio, a.net.Sim.Now()
		if gap := now.Sub(st.last[prio]); st.open[prio] && gap < link.DefaultPauseDuration/2 {
			a.report("xoff-spacing", "port %s priority %d: XOFF %v after the last one with no XON between (want at least %v)",
				portName, prio, gap, link.DefaultPauseDuration/2)
		}
		st.open[prio], st.last[prio] = true, now
	case packet.Resume:
		st.open[p.PausePrio] = false
	}
}

// checkAckMonotone enforces that the cumulative ACK point of a flow,
// as observed arriving at its sender's port, never moves backward.
// ACKs ride a FIFO control class over a single ECMP path, so even
// with loss the survivors arrive in increasing-PSN order.
func (a *Auditor) checkAckMonotone(h *nic.NIC, p *packet.Packet) {
	a.checks++
	f := a.flowState(p.Flow)
	if f.acked && p.PSN < f.lastAck {
		a.report("psn-monotonicity", "host %s flow %d: cumulative ACK regressed %d -> %d",
			h.Name, p.Flow, f.lastAck, p.PSN)
	}
	if !f.acked || p.PSN > f.lastAck {
		f.lastAck = p.PSN
		f.acked = true
	}
}

// checkDataContiguity enforces the sender-side PSN law at the wire:
// each flow's first transmission of a PSN extends the sequence by
// exactly one, so an emitted PSN can rewind (go-back-N) but never
// jump past maxSent+1.
func (a *Auditor) checkDataContiguity(h *nic.NIC, p *packet.Packet) {
	a.checks++
	f := a.flowState(p.Flow)
	if f.seen && p.PSN > f.maxSent+1 {
		a.report("psn-monotonicity", "host %s flow %d: data PSN jumped %d -> %d (gap never transmitted)",
			h.Name, p.Flow, f.maxSent, p.PSN)
	}
	if !f.seen && p.PSN != 0 {
		a.report("psn-monotonicity", "host %s flow %d: first data PSN is %d, want 0", h.Name, p.Flow, p.PSN)
	}
	if !f.seen || p.PSN > f.maxSent {
		f.maxSent = p.PSN
	}
	f.seen = true
}

func (a *Auditor) flowState(id packet.FlowID) *flowPSN {
	f, ok := a.flows[id]
	if !ok {
		f = &flowPSN{}
		a.flows[id] = f
	}
	return f
}

// checkRxBacklog enforces non-negative receive-pipeline accounting.
func (a *Auditor) checkRxBacklog(h *nic.NIC) {
	a.checks++
	if h.RxBacklog() < 0 {
		a.report("rx-backlog", "host %s: negative receive backlog %d", h.Name, h.RxBacklog())
	}
}

// checkSwitch verifies the shared-buffer conservation laws of one
// switch: occupancy non-negative, bounded by the buffer, equal to the
// sum of the per-(port, priority) ingress accounts; and per ingress
// port, wire bytes in == admitted + dropped + consumed PFC frames,
// with admitted == departed + buffered.
func (a *Auditor) checkSwitch(sw *fabric.Switch) {
	a.checks++
	var total int64
	for i := 0; i < sw.NumPorts(); i++ {
		var buffered int64
		for prio := 0; prio < packet.NumPriorities; prio++ {
			q := sw.IngressQueue(i, uint8(prio))
			if q < 0 {
				a.report("switch-conservation", "switch %s port %d priority %d: negative ingress account %d",
					sw.Name, i, prio, q)
			}
			buffered += q
		}
		acct := sw.Accounting(i)
		if acct.AdmittedBytes != acct.DepartedBytes+buffered {
			a.report("switch-conservation", "switch %s port %d: admitted %d != departed %d + buffered %d",
				sw.Name, i, acct.AdmittedBytes, acct.DepartedBytes, buffered)
		}
		st := sw.Port(i).Stats
		wireIn := st.RxBytes - (st.PauseRx+st.ResumeRx)*packet.ControlBytes
		if wireIn != acct.AdmittedBytes+acct.DroppedBytes {
			a.report("switch-conservation", "switch %s port %d: wire bytes in %d != admitted %d + dropped %d",
				sw.Name, i, wireIn, acct.AdmittedBytes, acct.DroppedBytes)
		}
		total += buffered
	}
	occ := sw.Occupied()
	if occ != total {
		a.report("switch-conservation", "switch %s: occupancy %d != sum of ingress accounts %d", sw.Name, occ, total)
	}
	if occ < 0 || occ > sw.Config().Spec.BufferBytes {
		a.report("buffer-occupancy", "switch %s: occupancy %d outside [0, %d]", sw.Name, occ, sw.Config().Spec.BufferBytes)
	}
}

// checkLink verifies a link's byte conservation: everything
// transmitted was received, lost, dropped by a fault, or is still
// propagating.
func (a *Auditor) checkLink(name string, l *link.Link) {
	a.checks++
	pa, pb := l.Ports()
	tx := pa.Stats.TxBytes + pb.Stats.TxBytes
	rx := pa.Stats.RxBytes + pb.Stats.RxBytes
	accounted := rx + l.LostBytes() + l.FaultDropBytes() + l.InFlightBytes()
	if tx != accounted {
		a.report("link-conservation", "link %s: tx %d != rx %d + lost %d + fault-dropped %d + in-flight %d",
			name, tx, rx, l.LostBytes(), l.FaultDropBytes(), l.InFlightBytes())
	}
}

// Final runs the end-of-run sweep — every switch's conservation check
// plus link conservation on every host and fabric link — and returns
// all violations observed during the run and by this sweep.
func (a *Auditor) Final() []Violation {
	for _, name := range a.net.SwitchNames() {
		a.checkSwitch(a.net.Switch(name))
	}
	for _, name := range a.net.HostNames() {
		a.checkLink("host:"+name, a.net.HostLink(name))
		a.checkRxBacklog(a.net.Host(name))
	}
	for i, l := range a.net.FabricLinks() {
		a.checkLink(fmt.Sprintf("fabric:%d", i), l)
	}
	return a.violations
}

// MustClean runs Final and panics with every recorded violation if any
// invariant was breached; chaos scenarios call it so a conservation
// bug fails the run loudly instead of skewing metrics silently.
func (a *Auditor) MustClean() {
	vs := a.Final()
	if len(vs) == 0 {
		return
	}
	msg := fmt.Sprintf("invariant: %d violation(s)", len(vs)+a.truncated)
	if a.truncated > 0 {
		msg += fmt.Sprintf(" (%d beyond the first %d not recorded)", a.truncated, maxRecorded)
	}
	for _, v := range vs {
		msg += "\n  " + v.String()
	}
	panic(msg)
}

// Violations returns the breaches recorded so far, without the
// end-of-run sweep.
func (a *Auditor) Violations() []Violation { return a.violations }

// Checks returns how many individual invariant evaluations have run —
// tests assert it is non-zero to prove the auditor was really armed.
func (a *Auditor) Checks() int64 { return a.checks }
