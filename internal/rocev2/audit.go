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
// transition: the cumulative ACK point never moves backward and never
// goes negative, and the window pointers stay nested (acked <= nextPSN
// <= maxSent <= endPSN — go-back-N may rewind nextPSN, but never past
// the ACK point). It runs on every packet sent and every ACK, so it is
// one test that inlines into its callers: each difference below is
// negative exactly when its order is broken, and so is their OR.
// acked >= 0 needs no term of its own, since lastAcked starts at 0 and
// only ever takes checked values.
func (s *Sender) audit() {
	if (s.acked-s.aud.lastAcked)|(s.nextPSN-s.acked)|(s.maxSent-s.nextPSN)|(s.endPSN-s.maxSent) < 0 {
		panic(senderBroken{s})
	}
	s.aud.lastAcked = s.acked
}

// senderBroken is the panic value of a failed sender audit. It holds
// one pointer, so panicking with it allocates nothing and costs audit
// little inlining budget; Error builds the message when it is read.
type senderBroken struct{ s *Sender }

// Error reports which of the sender's PSN invariants broke.
func (e senderBroken) Error() string {
	s := e.s
	if s.acked < s.aud.lastAcked {
		return fmt.Sprintf("rocev2: invariant violation: flow %d ACK point moved backward (%d -> %d)",
			s.Flow, s.aud.lastAcked, s.acked)
	}
	return fmt.Sprintf("rocev2: invariant violation: flow %d PSN pointers unnested: acked=%d nextPSN=%d maxSent=%d endPSN=%d",
		s.Flow, s.acked, s.nextPSN, s.maxSent, s.endPSN)
}

// audit asserts the receiver's expected PSN only ever advances.
func (r *Receiver) audit() {
	if r.expected < r.aud.lastExpected {
		panic(receiverBroken{r})
	}
	r.aud.lastExpected = r.expected
}

// receiverBroken is the panic value of a failed receiver audit, a
// one-pointer error for the same reason as senderBroken.
type receiverBroken struct{ r *Receiver }

// Error reports the receiver's expected PSN moving backward.
func (e receiverBroken) Error() string {
	r := e.r
	return fmt.Sprintf("rocev2: invariant violation: flow %d expected PSN moved backward (%d -> %d)",
		r.Flow, r.aud.lastExpected, r.expected)
}
