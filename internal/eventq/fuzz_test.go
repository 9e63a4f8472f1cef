package eventq

import (
	"testing"

	"dcqcn/internal/simtime"
)

// FuzzQueueOperations drives the heap with an arbitrary op tape — pushes,
// pops, and cancels through any handle ever issued, stale ones included
// — and checks every outcome against a reference model: pops return the
// earliest live event (FIFO among equal times), a handle is pending
// exactly while its event is live, and cancelling a stale handle never
// disturbs the event now occupying its recycled header.
func FuzzQueueOperations(f *testing.F) {
	f.Add([]byte{1, 5, 200, 0, 3, 0, 255, 9})
	f.Add([]byte{1, 1, 200, 200, 2, 2, 230, 200})
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
		fired := -1
		for i := 0; i < len(tape); i++ {
			op := tape[i]
			switch {
			case op < 170: // push with time from the next byte
				at := simtime.Time(op)
				if i+1 < len(tape) {
					at = simtime.Time(tape[i+1])
				}
				id := len(model)
				handles = append(handles, q.Push(at, func() { fired = id }))
				model = append(model, ref{at: at, live: true})
			case op < 220: // pop and verify against the model
				want := -1
				for id, r := range model {
					if r.live && (want < 0 || r.at < model[want].at) {
						want = id
					}
				}
				e := q.Pop()
				if want < 0 {
					if e != nil {
						t.Fatal("pop from empty returned event")
					}
					continue
				}
				if e == nil {
					t.Fatal("pop returned nil with pending events")
				}
				e.Fire()
				if fired != want {
					t.Fatalf("popped event %d at %d, model expects %d at %d", fired, e.At, want, model[want].at)
				}
				model[want].live = false
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
