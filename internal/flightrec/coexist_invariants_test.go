package flightrec_test

import (
	"testing"

	"dcqcn/internal/flightrec"
	"dcqcn/internal/invariant"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// TestRecorderAndAuditorCoexist arms the flight recorder and the
// conservation auditor on the same network, in both attach orders,
// and checks that both observers see the run: the chained hook surface
// (link.Port.ChainOnRx/ChainOnDeparture) must not let one subscriber
// displace the other.
func TestRecorderAndAuditorCoexist(t *testing.T) {
	run := func(t *testing.T, recorderFirst bool) {
		net := topology.NewStar(21, 2, topology.DefaultOptions())
		var r *flightrec.Recorder
		var aud *invariant.Auditor
		if recorderFirst {
			r = flightrec.Attach(net, flightrec.Config{})
			aud = invariant.Attach(net)
		} else {
			aud = invariant.Attach(net)
			r = flightrec.Attach(net, flightrec.Config{})
		}
		f := net.Host("H1").OpenFlow(net.Host("H2").ID)
		f.PostMessage(1000*1000, func(rocev2.Completion) {})
		net.Sim.Run(simtime.Time(2 * simtime.Millisecond))

		if r.EventsRecorded() == 0 {
			t.Fatal("flight recorder saw nothing with the auditor attached")
		}
		if aud.Checks() == 0 {
			t.Fatal("auditor ran no checks with the flight recorder attached")
		}
		aud.MustClean()
	}
	t.Run("recorder-then-auditor", func(t *testing.T) { run(t, true) })
	t.Run("auditor-then-recorder", func(t *testing.T) { run(t, false) })
}

// TestArmedRecorderDigestNeutralUnderAudit runs the same seed twice —
// once bare, once with both observers attached — and requires identical
// engine digests: the whole observer stack must be passive.
func TestArmedRecorderDigestNeutralUnderAudit(t *testing.T) {
	run := func(observe bool) string {
		net := topology.NewStar(33, 2, topology.DefaultOptions())
		if observe {
			flightrec.Attach(net, flightrec.Config{})
			invariant.Attach(net)
		}
		f := net.Host("H1").OpenFlow(net.Host("H2").ID)
		f.PostMessage(2*1000*1000, func(rocev2.Completion) {})
		net.Sim.Run(simtime.Time(2 * simtime.Millisecond))
		return net.Sim.Digest().String()
	}
	bare, observed := run(false), run(true)
	if bare != observed {
		t.Fatalf("observers perturbed the digest: bare %s, observed %s", bare, observed)
	}
}
