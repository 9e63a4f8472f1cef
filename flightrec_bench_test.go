package dcqcn

// Flight-recorder overhead benchmarks: the same 2:1 incast run bare and
// with the recorder attached. The armed/disarmed ns/op ratio is the
// recording tax (go test -run NONE -bench FlightRecorder .).

import "testing"

// incastRun drives the benchmark workload: a 2:1 incast for 10 ms of
// simulated time, optionally recorded. Returns the recorder (nil when
// disarmed).
func incastRun(record bool) *FlightRecorder {
	sim := NewStarNetwork(1, 3, DefaultOptions())
	var fr *FlightRecorder
	if record {
		fr = sim.AttachFlightRecorder()
	}
	recv := sim.Host("H3").NodeID()
	sim.Host("H1").OpenFlow(recv).PostMessage(20e6, nil)
	sim.Host("H2").OpenFlow(recv).PostMessage(20e6, nil)
	sim.RunFor(10 * Millisecond)
	return fr
}

// BenchmarkFlightRecorderDisarmed is the baseline: the incast with no
// recorder attached.
func BenchmarkFlightRecorderDisarmed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		incastRun(false)
	}
}

// BenchmarkFlightRecorderArmed is the same run with every hook tapped
// and the ring encoding every event.
func BenchmarkFlightRecorderArmed(b *testing.B) {
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		events = incastRun(true).EventsRecorded()
	}
	b.ReportMetric(float64(events), "events/run")
}
