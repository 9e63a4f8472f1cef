// Package invariant is the runtime half of the physics contract (see
// DESIGN.md §9): an auditor that attaches to a built topology through
// the passive observation hooks and checks, while a simulation runs,
// the conservation laws the static analyzers cannot prove —
//
//   - byte conservation per switch ingress port: every byte the wire
//     delivered was admitted to the shared buffer or dropped, and every
//     admitted byte is departed or still buffered;
//   - non-negative, bounded shared-buffer occupancy, consistent with
//     the per-(port, priority) ingress accounting;
//   - PFC pairing per (port, priority): an XON must be preceded by an
//     observed XOFF (quanta expiry may end a pause without XON, but an
//     unsolicited XON is a protocol violation);
//   - XOFF spacing per switch (port, priority): two XOFFs sent less than
//     half a pause interval apart with no XON between them mean a second
//     refresh chain;
//   - PSN monotonicity per QP on the wire: a sender's data PSNs stay
//     contiguous (go-back-N rewinds are legal, forward jumps are not)
//     and its incoming cumulative ACK point never regresses;
//   - link byte conservation at end of run: bytes transmitted equal
//     bytes received plus random losses, fault drops and frames still
//     in flight.
//
// The auditor is strictly passive: it schedules no events, draws no
// randomness and mutates no model state, so an armed run produces a
// bit-identical engine digest to an unarmed one. It costs nothing
// until Attach: the chaos scenarios arm it on every run, and any other
// run is audited by attaching it to the built network and calling
// MustClean after the run.
package invariant

import (
	"fmt"

	"dcqcn/internal/simtime"
)

// Violation is one observed breach of a physics invariant.
type Violation struct {
	// At is the simulated time the breach was observed.
	At simtime.Time
	// Check names the invariant family, e.g. "switch-conservation".
	Check string
	// Detail locates and quantifies the breach.
	Detail string
}

// String formats the violation for logs and panics.
func (v Violation) String() string {
	return fmt.Sprintf("t=%v %s: %s", v.At, v.Check, v.Detail)
}
