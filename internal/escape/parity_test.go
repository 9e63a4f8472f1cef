package escape

import (
	"strings"
	"testing"

	"dcqcn/internal/escape/testdata/parity"
)

// parityCases lists testdata/parity's hot functions with what the
// contract's two ground truths see in each: site is whether Analyze
// reports a heap site there, allocs whether one call allocates at run
// time (TestParityAllocs, non-race builds). A construct that allocates
// without a site is guarded by the AllocsPerRun budgets alone.
var parityCases = []struct {
	fn     string
	site   bool
	allocs bool
	call   func(q *parity.Queue)
}{
	// The compiler reports these four.
	{"Queue.StoreField", true, true, func(q *parity.Queue) { q.StoreField(1) }},
	{"Queue.Format", true, true, func(q *parity.Queue) { _ = q.Format(1000) }},
	{"Queue.ConcatEscapes", true, true, func(q *parity.Queue) { q.SetName("ev"); q.ConcatEscapes("-1") }},
	{"Queue.LoopClosures", true, true, func(q *parity.Queue) { q.Reset(); q.LoopClosures(oneVal) }},

	// These eight allocate nothing: the values stay in the frame, the
	// inliner removes the boxing, and the defers are open-coded.
	{"Queue.SliceLiteral", false, false, func(q *parity.Queue) { q.SliceLiteral(3) }},
	{"Queue.MapLiteral", false, false, func(q *parity.Queue) { q.MapLiteral(3) }},
	{"Queue.CaptureLocal", false, false, func(q *parity.Queue) { q.CaptureLocal(3) }},
	{"Queue.BoxVariadic", false, false, func(q *parity.Queue) { q.BoxVariadic(1000) }},
	{"Queue.BoxConvert", false, false, func(q *parity.Queue) { q.BoxConvert(1000) }},
	{"Queue.BoxParam", false, false, func(q *parity.Queue) { q.BoxParam(parity.Box{}) }},
	{"Queue.Defer", false, false, func(q *parity.Queue) { q.Defer() }},
	{"Queue.NestedDefer", false, false, func(q *parity.Queue) { q.NestedDefer() }},

	// These three allocate, but no escape line names them.
	{"Queue.AppendBare", false, true, func(q *parity.Queue) { q.AppendBare(8) }},
	{"Queue.AppendEmpty", false, true, func(q *parity.Queue) { q.AppendEmpty(8) }},
	{"Queue.ConcatLocal", false, true, func(q *parity.Queue) { q.SetName(longName); q.ConcatLocal(longName) }},
}

var (
	oneVal   = []int{1}
	longName = strings.Repeat("x", 40) // twice this is past the 32-byte stack buffer
)

// TestCompilerParity pins what the escape audit sees of each parity
// construct: a site in exactly the four functions whose allocation
// the compiler reports, and none in the rest.
func TestCompilerParity(t *testing.T) {
	got, err := Analyze("../..", []string{"./internal/escape/testdata/parity"})
	if err != nil {
		t.Fatal(err)
	}
	sites := make(map[string]int)
	for _, s := range got.Sites {
		sites[s.Func] += s.Count
	}
	want := make(map[string]bool)
	for _, c := range parityCases {
		want[c.fn] = true
		if (sites[c.fn] > 0) != c.site {
			t.Errorf("%s: %d escape sites, parity table says site=%v", c.fn, sites[c.fn], c.site)
		}
	}
	for fn := range sites {
		if !want[fn] {
			t.Errorf("site in %s, which is not a parity case", fn)
		}
	}
}
