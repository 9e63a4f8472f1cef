package eventq

import (
	"testing"

	"dcqcn/internal/simtime"
)

// FuzzQueueOperations drives the heap with an arbitrary op tape — pushes,
// pops, pops bounded by a limit, and cancels and re-arms through any
// handle ever issued, stale ones included — and checks every outcome
// against a reference model: pops return the earliest live event (FIFO
// among equal times), a bounded pop returns nothing while that event is
// past its limit, a handle is pending exactly while its event is live,
// and cancelling or re-arming a stale handle never disturbs the event now
// occupying its recycled header. A re-arm is a cancel and a push: the
// event takes its new time and a fresh FIFO ordinal, its old handle goes
// stale, and through a stale handle it only pushes. Push times and limits
// are offsets from the clock, as the engine's are: the clock is the last
// popped time, or the limit of a bounded pop that returned nothing, if
// later; a limit may also fall before it.
func FuzzQueueOperations(f *testing.F) {
	f.Add([]byte{1, 5, 200, 0, 3, 0, 255, 9})
	f.Add([]byte{1, 1, 200, 200, 2, 2, 230, 200})
	f.Add([]byte{1, 40, 9, 210, 20, 1, 12, 210, 30, 180, 180})
	// Re-arms: equal-time events re-armed out of push order, and a
	// deferred event the clock reaches before it is due.
	f.Add([]byte{48, 48, 140, 140, 140, 193})
	f.Add([]byte{48, 152, 219, 199})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 512 {
			t.Skip()
		}
		var q Queue
		type ref struct {
			at   simtime.Time
			live bool
		}
		var model []ref // indexed by push order, which is also the FIFO tie-break
		var handles []Handle
		var last simtime.Time
		fired := -1
		next := func(i int, op byte) simtime.Duration {
			if i+1 < len(tape) {
				return simtime.Duration(tape[i+1])
			}
			return simtime.Duration(op)
		}
		for i := 0; i < len(tape); i++ {
			op := tape[i]
			switch {
			case op < 140: // push at an offset from the next byte
				at := last.Add(next(i, op))
				id := len(model)
				handles = append(handles, q.Push(at, func() { fired = id }))
				model = append(model, ref{at: at, live: true})
			case op < 170: // re-arm through any handle, live or stale, to an offset from the next byte
				if len(handles) == 0 {
					continue
				}
				old := int(op) % len(handles)
				if got := handles[old].Pending(); got != model[old].live {
					t.Fatalf("handle %d pending=%v before re-arm, model live=%v", old, got, model[old].live)
				}
				at := last.Add(next(i, op))
				id := len(model)
				h := q.Rearm(handles[old], at, func() { fired = id })
				if handles[old].Pending() || !h.Pending() {
					t.Fatalf("re-arm of handle %d: old pending=%v, new pending=%v", old, handles[old].Pending(), h.Pending())
				}
				model[old].live = false
				handles = append(handles, h)
				model = append(model, ref{at: at, live: true})
			case op < 220: // pop; from 200 on, bounded by the next byte less 32 as an offset
				limit := simtime.Forever
				if op >= 200 {
					limit = last.Add(next(i, op) - 32)
				}
				want := -1
				for id, r := range model {
					if r.live && (want < 0 || r.at < model[want].at) {
						want = id
					}
				}
				e := q.PopUntil(limit)
				if want < 0 || model[want].at > limit {
					if e != nil {
						t.Fatalf("PopUntil(%d) returned an event at %d, model expects none", limit, e.At)
					}
					if limit > last && limit != simtime.Forever {
						last = limit // the engine's clock moves to its horizon
					}
					continue
				}
				if e == nil {
					t.Fatalf("PopUntil(%d) returned nil, model expects %d at %d", limit, want, model[want].at)
				}
				e.Fire()
				if fired != want {
					t.Fatalf("popped event %d at %d, model expects %d at %d", fired, e.At, want, model[want].at)
				}
				model[want].live = false
				last = e.At
			default: // cancel through any handle, live or stale
				if len(handles) == 0 {
					continue
				}
				id := int(op) % len(handles)
				if got := handles[id].Pending(); got != model[id].live {
					t.Fatalf("handle %d pending=%v, model live=%v", id, got, model[id].live)
				}
				q.Cancel(handles[id])
				model[id].live = false
			}
		}
		live := 0
		for id, r := range model {
			if r.live {
				live++
			}
			if handles[id].Pending() != r.live {
				t.Fatalf("handle %d pending=%v at end, model live=%v", id, handles[id].Pending(), r.live)
			}
		}
		if q.Len() != live {
			t.Fatalf("queue length %d, model %d", q.Len(), live)
		}
	})
}
