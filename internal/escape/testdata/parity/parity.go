// Package parity holds one //hot:path function per construct that is
// commonly suspected of allocating on every event. The escape package's
// parity tests pin, for each one, whether the compiler's escape
// analysis reports a heap site and whether a call allocates at run
// time: the two ground truths of the hot-path allocation contract
// (DESIGN.md §12).
package parity

import "fmt"

type event struct{ at int }

// Queue is the receiver every construct runs on.
type Queue struct {
	last *event
	name string
	fns  []func() int
	done func()
}

// NewQueue returns a Queue whose deferred callback is set.
func NewQueue() *Queue { return &Queue{done: func() {}} }

// SetName sets the string the concatenation constructs extend.
func (q *Queue) SetName(s string) { q.name = s }

// Reset empties the closure list and keeps its capacity.
func (q *Queue) Reset() { q.fns = q.fns[:0] }

// Box is a concrete non-pointer value that satisfies sink.
type Box struct{ v int }

func (Box) consume() {}

type sink interface{ consume() }

func observe(args ...any) { _ = args }

func takesIface(s sink) { s.consume() }

func noop() {}

// StoreField stores a new composite literal's address in a field.
//
//hot:path
func (q *Queue) StoreField(at int) { q.last = &event{at: at} }

// Format formats a non-constant argument.
//
//hot:path
func (q *Queue) Format(n int) string { return fmt.Sprintf("ev-%d", n) }

// ConcatEscapes stores a concatenation in a field.
//
//hot:path
func (q *Queue) ConcatEscapes(s string) { q.name = q.name + s }

// LoopClosures appends a closure over the loop variable to a field.
//
//hot:path
func (q *Queue) LoopClosures(vals []int) {
	for _, v := range vals {
		q.fns = append(q.fns, func() int { return v })
	}
}

// SliceLiteral builds a slice literal that never leaves the frame.
//
//hot:path
func (q *Queue) SliceLiteral(n int) int {
	w := []int{n, n + 1}
	return w[0] + w[1]
}

// MapLiteral builds a map literal that never leaves the frame.
//
//hot:path
func (q *Queue) MapLiteral(n int) int {
	m := map[string]int{}
	m["a"] = n
	return m["a"]
}

// CaptureLocal calls a closure over a local in place.
//
//hot:path
func (q *Queue) CaptureLocal(n int) int {
	base := n
	f := func() int { return base }
	return f()
}

// BoxVariadic passes an int to a ...any parameter.
//
//hot:path
func (q *Queue) BoxVariadic(n int) { observe(n) }

// BoxConvert converts an int to an interface.
//
//hot:path
func (q *Queue) BoxConvert(n int) { _ = any(n) }

// BoxParam passes a struct value to an interface parameter.
//
//hot:path
func (q *Queue) BoxParam(b Box) { takesIface(b) }

// Defer defers a method call.
//
//hot:path
func (q *Queue) Defer() {
	defer q.done()
	q.last = nil
}

// NestedDefer defers inside a func literal it builds and calls.
//
//hot:path
func (q *Queue) NestedDefer() {
	fn := func() { defer noop() }
	fn()
}

// AppendBare grows a local slice declared without capacity.
//
//hot:path
func (q *Queue) AppendBare(n int) int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return len(out)
}

// AppendEmpty grows a local slice that starts as an empty literal.
//
//hot:path
func (q *Queue) AppendEmpty(n int) int {
	empty := []int{}
	for i := 0; i < n; i++ {
		empty = append(empty, i)
	}
	return len(empty)
}

// ConcatLocal concatenates into a string that never leaves the frame.
// The compiler gives it a 32-byte stack buffer, so only a longer
// result allocates.
//
//hot:path
func (q *Queue) ConcatLocal(s string) int {
	t := q.name + s
	return len(t)
}
