package core

import "dcqcn/internal/simtime"

// NP is the notification-point state machine of Fig. 6, instantiated once
// per flow at the receiver. It converts CE-marked packet arrivals into
// CNPs, rate-limited to one per CNPInterval:
//
//   - the first marked packet of a flow triggers an immediate CNP;
//   - thereafter at most one CNP is generated every CNPInterval, and only
//     if some packet that arrived in that window was marked.
//
// Generating a CNP is expensive on real NICs, so the machine deliberately
// does no work per marked packet beyond setting a flag.
type NP struct {
	params Params
	send   func() // emits one CNP toward the flow's sender

	active     bool  // a CNP window is open (timer armed)
	markedSeen bool  // a marked packet arrived in the current window
	window     Timer // closes the CNP window; bound once, in NewNP

	// CNPsSent and MarkedPackets count activity for experiment reports.
	CNPsSent      int64
	MarkedPackets int64
}

// NewNP creates the per-flow NP machine. send is invoked (synchronously)
// each time a CNP must be emitted.
func NewNP(params Params, clock Clock, send func()) *NP {
	n := &NP{params: params, send: send}
	n.window = NewTimer(clock, n.windowExpired)
	return n
}

// OnPacket feeds an arriving data packet's CE mark into the machine.
func (n *NP) OnPacket(ceMarked bool) {
	if ceMarked {
		n.MarkedPackets++
	}
	if !n.active {
		if !ceMarked {
			return
		}
		// First marked packet in an idle period: CNP now, open a window.
		n.emit()
		return
	}
	if ceMarked {
		n.markedSeen = true
	}
}

// Stop cancels any pending window timer; call when the flow is torn down.
func (n *NP) Stop() {
	n.window.Stop()
	n.active = false
	n.markedSeen = false
}

func (n *NP) emit() {
	n.CNPsSent++
	n.send()
	n.active = true
	n.markedSeen = false
	n.window.Reset(n.params.CNPInterval)
}

func (n *NP) windowExpired() {
	if n.markedSeen {
		// Marked traffic arrived during the window: one CNP, next window.
		n.emit()
		return
	}
	// Quiet window: return to idle; the next marked packet is immediate.
	n.active = false
}

// PendingWindow reports whether the machine is inside a CNP spacing
// window (mainly for tests and introspection).
func (n *NP) PendingWindow() bool { return n.active }

// Interval returns the configured CNP spacing.
func (n *NP) Interval() simtime.Duration { return n.params.CNPInterval }
