package engine

import (
	"math/rand"
	"slices"
	"testing"

	"dcqcn/internal/eventq"
	"dcqcn/internal/simtime"
)

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []simtime.Time
	for _, at := range []simtime.Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	n := s.Run(25)
	if n != 2 {
		t.Fatalf("executed %d events, want 2", n)
	}
	if s.Now() != 25 {
		t.Fatalf("clock at %v, want 25 (advanced to horizon)", s.Now())
	}
	n = s.Run(40)
	if n != 2 {
		t.Fatalf("second run executed %d events, want 2", n)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

// TestScheduleBetweenHorizonAndHead is the regression test for a queue
// whose radix base ran ahead of the clock: Run(25) stops short of the
// event at 30, and an event then scheduled at 27 must still fire before
// it, exactly as if both had been scheduled up front.
func TestScheduleBetweenHorizonAndHead(t *testing.T) {
	run := func(late bool) (Digest, []simtime.Time) {
		s := New(1)
		var fired []simtime.Time
		note := func() { fired = append(fired, s.Now()) }
		s.At(10, note)
		s.At(30, note)
		if !late {
			s.At(27, note)
		}
		s.Run(25)
		if late {
			s.At(27, note)
		}
		s.RunAll()
		return s.Digest(), fired
	}
	upfront, _ := run(false)
	got, fired := run(true)
	if !slices.Equal(fired, []simtime.Time{10, 27, 30}) {
		t.Fatalf("fired at %v, want [10 27 30]", fired)
	}
	if got != upfront {
		t.Fatalf("digest %v after scheduling past the horizon, %v up front", got, upfront)
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	s := New(1)
	hit := false
	s.At(100, func() { hit = true })
	s.Run(100)
	if !hit {
		t.Fatal("event scheduled exactly at horizon did not fire")
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	s := New(1)
	var order []int
	s.At(10, func() {
		order = append(order, 1)
		s.After(5, func() { order = append(order, 2) })
		s.At(s.Now(), func() { order = append(order, 3) }) // same-time chaining allowed
	})
	s.RunAll()
	want := []int{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New(1)
	pending := s.At(20, func() {})
	for _, tc := range []struct {
		name     string
		schedule func()
	}{
		{"At", func() { s.At(5, func() {}) }},
		{"Rearm", func() { s.Rearm(pending, 5, func() {}) }},
	} {
		s.At(10, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s in the past did not panic", tc.name)
				}
			}()
			tc.schedule()
		})
	}
	s.RunAll()
}

func TestHalt(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(simtime.Time(i), func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Fatalf("halt: executed %d events, want 3", count)
	}
	if s.Pending() != 7 {
		t.Fatalf("pending %d, want 7", s.Pending())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []simtime.Time
	stop := s.Ticker(10, func(now simtime.Time) {
		ticks = append(ticks, now)
		if len(ticks) == 5 {
			// stop from within the callback
		}
	})
	s.At(45, func() { stop() })
	s.Run(1000)
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks, want 4 (10,20,30,40)", len(ticks))
	}
	for i, at := range []simtime.Time{10, 20, 30, 40} {
		if ticks[i] != at {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], at)
		}
	}
}

// TestTickerStopFromWithinCallback pins the cancel-from-within-fn
// contract: stop() issued inside the tick callback must also cancel the
// next tick, which the ticker schedules before invoking the callback.
func TestTickerStopFromWithinCallback(t *testing.T) {
	s := New(1)
	ticks := 0
	var stop func()
	stop = s.Ticker(10, func(now simtime.Time) {
		ticks++
		if ticks == 3 {
			if s.Pending() == 0 {
				t.Fatal("next tick should be queued while the callback runs")
			}
			stop()
			if s.Pending() != 0 {
				t.Fatalf("stop from within fn left %d events queued", s.Pending())
			}
		}
	})
	s.Run(1000)
	if ticks != 3 {
		t.Fatalf("got %d ticks, want 3 (stopped from within the 3rd)", ticks)
	}
}

// TestTickerStopIsIdempotent checks stop() can be called again (from
// inside or outside a callback) without reviving or double-cancelling.
func TestTickerStopIsIdempotent(t *testing.T) {
	s := New(1)
	ticks := 0
	stop := s.Ticker(10, func(simtime.Time) { ticks++ })
	s.At(25, func() { stop(); stop() })
	s.Run(1000)
	if ticks != 2 {
		t.Fatalf("got %d ticks, want 2", ticks)
	}
}

// TestDigestReproducible checks the determinism gate itself: identical
// runs produce identical digests, and perturbing the event schedule
// changes the hash even when the event count is unchanged.
func TestDigestReproducible(t *testing.T) {
	run := func(shift simtime.Duration) Digest {
		s := New(7)
		for i := 0; i < 100; i++ {
			d := simtime.Duration(i) * 3
			if i == 50 {
				d += shift
			}
			s.After(d, func() { _ = s.Rand().Int63() })
		}
		s.RunAll()
		return s.Digest()
	}
	a, b := run(0), run(0)
	if a != b {
		t.Fatalf("identical runs diverged: %v vs %v", a, b)
	}
	if a.Events != 100 {
		t.Fatalf("digest counted %d events, want 100", a.Events)
	}
	c := run(1)
	if c.Events != a.Events {
		t.Fatalf("perturbed run executed %d events, want %d", c.Events, a.Events)
	}
	if c.Hash == a.Hash {
		t.Fatal("digest hash did not react to a schedule perturbation")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(99)
		var draws []int64
		for i := 0; i < 50; i++ {
			s.After(simtime.Duration(i), func() { draws = append(draws, s.Rand().Int63()) })
		}
		s.RunAll()
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at draw %d", i)
		}
	}
}

func TestCancelTimer(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(50, func() { fired = true })
	s.At(10, func() { s.Cancel(e) })
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestDigestOrderSensitive checks that the digest mix does not commute:
// folding the same two timestamps in the opposite order must give a
// different hash. The run loop folds in time order, so a queue that
// misordered two events would otherwise go unnoticed.
func TestDigestOrderSensitive(t *testing.T) {
	fold := func(ts ...simtime.Time) uint64 {
		c := &core{hash: fnvOffset64}
		for _, at := range ts {
			c.fold(at)
		}
		return c.hash
	}
	for _, pair := range [][2]simtime.Time{{0, 1}, {10, 20}, {1 << 32, 1}, {simtime.Time(simtime.Millisecond), simtime.Time(simtime.Millisecond) + 1}} {
		a, b := pair[0], pair[1]
		if fold(a, b) == fold(b, a) {
			t.Errorf("folding %d,%d and %d,%d gave the same digest", a, b, b, a)
		}
	}
}

// TestEqualTimeOrder pins the equal-time rule (class, k1, k2) at the
// engine: at one timestamp control events fire first, then link
// arrivals, then local model events, whatever order they were scheduled
// in; arrivals among themselves fire in (direction, sequence) order, not
// insertion order.
func TestEqualTimeOrder(t *testing.T) {
	const at = 100
	s := New(1)
	m := s.Model()
	var got []string
	note := func(name string) func() { return func() { got = append(got, name) } }
	arrive := func(name any) { got = append(got, name.(string)) }

	m.At(at, note("local"))
	m.AtArrival(at, 2, 0, arrive, "arrival 2/0")
	m.AtArrival(at, 1, 5, arrive, "arrival 1/5")
	m.AtArrival(at, 1, 4, arrive, "arrival 1/4")
	s.At(at, note("control"))
	s.Run(at)

	want := []string{"control", "arrival 1/4", "arrival 1/5", "arrival 2/0", "local"}
	if !slices.Equal(got, want) {
		t.Fatalf("equal-time order %v, want %v", got, want)
	}
}

// TestRearmMatchesCancelAt runs one timer-heavy script twice, re-arming
// by Cancel then At in one run and by Rearm in the other: re-arms to
// later, earlier and equal times, equal-time neighbours scheduled before
// and after the re-arm, and horizons that fall between a deferred
// event's old and new times, with events scheduled right after each
// horizon. Both runs must fire the same events in the same order and end
// with the same digest.
func TestRearmMatchesCancelAt(t *testing.T) {
	run := func(rearm bool) (Digest, []string) {
		s := New(1)
		var fired []string
		note := func(name string) func() { return func() { fired = append(fired, name) } }
		var timer eventq.Handle
		arm := func(at simtime.Time) {
			if rearm {
				timer = s.Rearm(timer, at, note("timer"))
				return
			}
			s.Cancel(timer)
			timer = s.At(at, note("timer"))
		}
		arm(50)
		s.At(100, note("before"))
		arm(100) // later: ties with "before" and fires after it
		s.At(100, note("after"))
		s.Run(60) // passes the old time 50 while the timer is due at 100
		s.At(60, note("at horizon"))
		s.Run(100)
		arm(150)   // the timer fired: this schedules it anew
		arm(300)   // later
		s.Run(200) // passes 150 while the timer is due at 300
		s.At(200, note("at second horizon"))
		arm(250) // earlier
		arm(250) // the same time
		s.RunAll()
		return s.Digest(), fired
	}
	want, wantFired := run(false)
	got, gotFired := run(true)
	if !slices.Equal(gotFired, wantFired) {
		t.Fatalf("re-arming fired %v, cancel-and-schedule fired %v", gotFired, wantFired)
	}
	if got != want {
		t.Fatalf("re-arming digest %v, cancel-and-schedule %v", got, want)
	}
	if order := []string{"at horizon", "before", "timer", "after", "at second horizon", "timer"}; !slices.Equal(wantFired, order) {
		t.Fatalf("cancel-and-schedule fired %v, the script expects %v", wantFired, order)
	}
}

// TestRandDrawsSeedStream pins the control stream, which Rand builds at
// its first call: its draws are those of a source seeded with the
// simulator's seed, and every call returns the same stream.
func TestRandDrawsSeedStream(t *testing.T) {
	const seed = 42
	s := New(seed)
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		if got, w := s.Rand().Int63(), want.Int63(); got != w {
			t.Fatalf("draw %d of Sim.Rand() = %d, a source seeded with %d gives %d", i, got, seed, w)
		}
	}
}
