// Package trace provides the observability layer for simulations:
// periodic sampling of named gauges into time series and CSV export
// for plotting — how the repository's figures are extracted from runs.
package trace

import (
	"fmt"
	"io"

	"dcqcn/internal/engine"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
)

// Recorder samples registered gauges on a fixed period.
type Recorder struct {
	sim    *engine.Sim
	period simtime.Duration

	names  []string
	probes map[string]func() float64
	series map[string]*stats.Series

	stop    func()
	running bool
}

// NewRecorder creates a recorder sampling every period. Gauges must be
// registered before Start.
func NewRecorder(sim *engine.Sim, period simtime.Duration) *Recorder {
	if period <= 0 {
		panic("trace: period must be positive")
	}
	return &Recorder{
		sim:    sim,
		period: period,
		probes: make(map[string]func() float64),
		series: make(map[string]*stats.Series),
	}
}

// Gauge registers a named quantity to sample. Registering an existing
// name replaces its probe but keeps accumulated samples.
func (r *Recorder) Gauge(name string, fn func() float64) {
	if r.running {
		panic("trace: Gauge after Start")
	}
	if _, exists := r.probes[name]; !exists {
		r.names = append(r.names, name)
		r.series[name] = &stats.Series{}
	}
	r.probes[name] = fn
}

// Start begins sampling.
func (r *Recorder) Start() {
	if r.running {
		return
	}
	r.running = true
	r.stop = r.sim.Ticker(r.period, func(now simtime.Time) {
		t := now.Seconds()
		for _, name := range r.names {
			r.series[name].Add(t, r.probes[name]())
		}
	})
}

// Stop ends sampling. The recorder can be restarted.
func (r *Recorder) Stop() {
	if !r.running {
		return
	}
	r.running = false
	r.stop()
}

// Names returns registered gauge names in registration order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Series returns the samples of one gauge (nil if unknown).
func (r *Recorder) Series(name string) *stats.Series { return r.series[name] }

// WriteCSV emits all series as one CSV table: time_s, then one column
// per gauge in registration order.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprint(w, "time_s"); err != nil {
		return err
	}
	for _, name := range r.names {
		if _, err := fmt.Fprintf(w, ",%s", name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if len(r.names) == 0 {
		return nil
	}
	n := r.series[r.names[0]].N()
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "%.9f", r.series[r.names[0]].T[i]); err != nil {
			return err
		}
		for _, name := range r.names {
			s := r.series[name]
			if i >= s.N() {
				return fmt.Errorf("trace: series %q shorter than others", name)
			}
			if _, err := fmt.Fprintf(w, ",%g", s.V[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
