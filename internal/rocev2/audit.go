package rocev2

import "fmt"

// senderAudit carries the cross-call state of the sender's PSN
// invariants.
type senderAudit struct {
	lastAcked int64
}

// receiverAudit carries the cross-call state of the receiver's PSN
// invariants.
type receiverAudit struct {
	lastExpected int64
}

// audit asserts the sender's PSN ordering after every state
// transition: the cumulative ACK point never moves backward, and the
// window pointers stay nested (acked <= nextPSN <= maxSent <= endPSN
// — go-back-N may rewind nextPSN, but never past the ACK point). It
// runs on every packet sent and every ACK, so it is only compares and
// inlines into its callers; the panic is built in senderBroken.
func (s *Sender) audit() {
	if s.acked < s.aud.lastAcked || s.acked < 0 || s.acked > s.nextPSN ||
		s.nextPSN > s.maxSent || s.maxSent > s.endPSN {
		s.senderBroken()
	}
	s.aud.lastAcked = s.acked
}

// senderBroken reports which of the sender's PSN invariants broke. It
// stays out of line so that audit inlines and its callers gain no heap
// escape from the formatted message.
//
//go:noinline
func (s *Sender) senderBroken() {
	if s.acked < s.aud.lastAcked {
		panic(fmt.Sprintf("rocev2: invariant violation: flow %d ACK point moved backward (%d -> %d)",
			s.Flow, s.aud.lastAcked, s.acked))
	}
	panic(fmt.Sprintf("rocev2: invariant violation: flow %d PSN pointers unnested: acked=%d nextPSN=%d maxSent=%d endPSN=%d",
		s.Flow, s.acked, s.nextPSN, s.maxSent, s.endPSN))
}

// audit asserts the receiver's expected PSN only ever advances.
func (r *Receiver) audit() {
	if r.expected < r.aud.lastExpected {
		r.receiverBroken()
	}
	r.aud.lastExpected = r.expected
}

// receiverBroken reports the receiver's expected PSN moving backward,
// out of line for the same reason as senderBroken.
//
//go:noinline
func (r *Receiver) receiverBroken() {
	panic(fmt.Sprintf("rocev2: invariant violation: flow %d expected PSN moved backward (%d -> %d)",
		r.Flow, r.aud.lastExpected, r.expected))
}
