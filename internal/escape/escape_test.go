package escape

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSplitDiagnostic(t *testing.T) {
	cases := []struct {
		line    string
		file    string
		ln, col int
		msg     string
		ok      bool
	}{
		{"internal/eventq/eventq.go:96:7: &Event{} escapes to heap",
			"internal/eventq/eventq.go", 96, 7, "&Event{} escapes to heap", true},
		{"internal/link/link.go:584:2: moved to heap: d",
			"internal/link/link.go", 584, 2, "moved to heap: d", true},
		{"# dcqcn/internal/eventq", "", 0, 0, "", false},
		{"<autogenerated>:1: uint8(r) escapes to heap", "", 0, 0, "", false},
		{"not a diagnostic at all", "", 0, 0, "", false},
		{"file.go:xx:7: msg", "", 0, 0, "", false},
	}
	for _, c := range cases {
		file, ln, col, msg, ok := splitDiagnostic(c.line)
		if ok != c.ok {
			t.Errorf("splitDiagnostic(%q) ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if file != c.file || ln != c.ln || col != c.col || msg != c.msg {
			t.Errorf("splitDiagnostic(%q) = %q %d %d %q", c.line, file, ln, col, msg)
		}
	}
}

func TestHotFuncMapping(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "fmt"

//hot:path
func hot(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bad %d", n))
	}
	return n * 2
}

func cold(n int) int { return n }

// step is hot despite leading prose in the doc comment.
//
//hot:path
func (s *S) step() {}

type S struct{}

// ack carries a note after the directive, as internal/cc's do.
//
//hot:path per-ACK signal delivery
func ack(n int) int { return n + 1 }

//hot:paths is not the directive
func near(n int) int { return n - 1 }
`
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := map[string]*fileInfo{}
	fi, err := fileInfoFor(cache, dir, "p.go")
	if err != nil {
		t.Fatal(err)
	}
	if fi == nil {
		t.Fatal("fileInfoFor returned nil for existing file")
	}
	if got := fi.hotFuncAt(9, 2); got != "hot" { // return n * 2
		t.Errorf("line 9 mapped to %q, want hot", got)
	}
	if got := fi.hotFuncAt(8, 20); got != "" { // inside panic(fmt.Sprintf(...))
		t.Errorf("panic argument mapped to %q, want exempt", got)
	}
	if got := fi.hotFuncAt(13, 23); got != "" { // cold's body
		t.Errorf("cold function mapped to %q, want none", got)
	}
	if got := fi.hotFuncAt(18, 22); got != "S.step" { // method body
		t.Errorf("method mapped to %q, want S.step", got)
	}
	if got := fi.hotFuncAt(25, 23); got != "ack" { // directive plus note
		t.Errorf("annotated-with-note function mapped to %q, want ack", got)
	}
	if got := fi.hotFuncAt(28, 24); got != "" { // near-miss directive
		t.Errorf("near-miss directive mapped to %q, want none", got)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	r := &Report{Sites: []Site{
		{Pkg: "dcqcn/internal/eventq", Func: "Queue.PushKeyed", Msg: "&Event{...} escapes to heap", Count: 1},
		{Pkg: "dcqcn/internal/link", Func: "Link.deliver", Msg: "func literal escapes to heap", Count: 2},
	}}
	back, err := Parse(r.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Sites, back.Sites) {
		t.Fatalf("round trip mismatch:\n%v\n%v", r.Sites, back.Sites)
	}

	if _, err := Parse("only\ttwo\tfields"); err == nil {
		t.Error("malformed golden line accepted")
	}
	if _, err := Parse("p\tf\t0\tmsg"); err == nil {
		t.Error("zero count accepted")
	}
}

func TestCompare(t *testing.T) {
	golden := &Report{Sites: []Site{
		{Pkg: "p", Func: "f", Msg: "a escapes to heap", Count: 1},
		{Pkg: "p", Func: "g", Msg: "b escapes to heap", Count: 2},
	}}
	if diffs := Compare(golden, golden); len(diffs) != 0 {
		t.Fatalf("self-compare produced diffs: %v", diffs)
	}

	got := &Report{Sites: []Site{
		{Pkg: "p", Func: "f", Msg: "a escapes to heap", Count: 1},
		{Pkg: "p", Func: "g", Msg: "b escapes to heap", Count: 3}, // grew
		{Pkg: "p", Func: "h", Msg: "c escapes to heap", Count: 1}, // new
	}}
	diffs := Compare(golden, got)
	if len(diffs) != 2 {
		t.Fatalf("want 2 diffs, got %d: %v", len(diffs), diffs)
	}
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"new escape", "escape count grew", "p h", "golden 2, now 3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diffs missing %q:\n%s", want, joined)
		}
	}

	// Removing a site flags the golden as stale, too: it must always
	// mirror the tree exactly.
	shrunk := &Report{Sites: golden.Sites[:1]}
	diffs = Compare(golden, shrunk)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "resolved escape") {
		t.Fatalf("want one resolved-escape diff, got %v", diffs)
	}
}

// TestAnalyzeEventq pins the event queue's single escape: newEvent,
// the pool growing by one header at a new peak of pending events. The
// scheduling entry points themselves must not allocate.
func TestAnalyzeEventq(t *testing.T) {
	got, err := Analyze("../..", []string{"dcqcn/internal/eventq"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range got.Sites {
		if s.Pkg != "dcqcn/internal/eventq" {
			t.Errorf("site outside the analyzed package: %+v", s)
		}
		if s.Func == "newEvent" && strings.Contains(s.Msg, "&Event{} escapes to heap") {
			found = true
		} else {
			t.Errorf("unexpected event-queue escape: %+v", s)
		}
	}
	if !found {
		t.Fatalf("newEvent pool-growth escape not reported; sites: %+v", got.Sites)
	}
}

// TestSeededEscapeFailsAudit is the contract's negative test: an
// escape present in the tree but absent from the golden — exactly what
// a fresh heap escape on the link path looks like to the audit — must
// produce a failing, readable diff naming the site. It seeds the
// deletion of newPauseExpiry's timer allocation from the golden.
func TestSeededEscapeFailsAudit(t *testing.T) {
	got, err := Analyze("../..", []string{"dcqcn/internal/link"})
	if err != nil {
		t.Fatal(err)
	}
	stale := &Report{}
	for _, s := range got.Sites {
		if s.Func == "newPauseExpiry" && strings.Contains(s.Msg, "&pauseExpiry{}") {
			continue // golden predates this escape
		}
		stale.Sites = append(stale.Sites, s)
	}
	if len(stale.Sites) == len(got.Sites) {
		t.Fatalf("newPauseExpiry escape not reported; sites: %+v", got.Sites)
	}
	diffs := Compare(stale, got)
	if len(diffs) == 0 {
		t.Fatal("audit passed against a golden missing the newPauseExpiry escape")
	}
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "new escape") || !strings.Contains(joined, "newPauseExpiry") {
		t.Fatalf("diff does not name the seeded escape:\n%s", joined)
	}
}

// TestGoldenMatchesTree is the enforcement edge: the committed
// escape.golden must reproduce exactly from the current tree over
// Scope, the same packages `dcqcn-lint -escape` builds. A new escape
// (or a stale golden) fails here and in `make lint`.
func TestGoldenMatchesTree(t *testing.T) {
	data, err := os.ReadFile("../../escape.golden")
	if err != nil {
		t.Fatalf("escape.golden missing: %v (create with: go run ./cmd/dcqcn-lint -escape -update)", err)
	}
	golden, err := Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze("../..", Scope)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(golden, got); len(diffs) != 0 {
		t.Fatalf("escape.golden diverges from the tree:\n%s", strings.Join(diffs, "\n"))
	}
}

// TestHotPackagesDesignated keeps the packages that carry the event
// path under the audit: each must still hold at least one //hot:path
// function as the audit's own parser sees it, so the contract cannot
// be deleted one annotation at a time.
func TestHotPackagesDesignated(t *testing.T) {
	const root = "../.."
	cache := map[string]*fileInfo{}
	for _, pkg := range []string{"cc", "engine", "eventq", "fabric", "flightrec", "fluid", "hybrid", "link", "packet"} {
		files, err := filepath.Glob(filepath.Join(root, "internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		hot := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := fileInfoFor(cache, root, rel)
			if err != nil {
				t.Fatal(err)
			}
			hot += len(fi.funcs)
		}
		if hot == 0 {
			t.Errorf("internal/%s has no //hot:path function; its per-event code would leave the escape audit", pkg)
		}
	}
}
