// Package a exercises the //lint:allow waiver through lint.Run. Every
// code line here is unique, so the tests in lint_test.go can locate a
// finding by its text: which findings a waiver silences, replaces or
// leaves, and which waivers are findings themselves.
package a

// sameLine: a reasoned waiver on the flagged line silences the finding.
func sameLine(a, b float64) bool {
	return a == b //lint:allow floateq the fixture compares stored values
}

// lineAbove: a reasoned waiver on the line above silences it too.
func lineAbove(c, d float64) bool {
	//lint:allow floateq the fixture compares stored values
	return c == d
}

// reasonless: the waiver is reported in place of the finding.
func reasonless(e, f float64) bool {
	//lint:allow floateq
	return e == f
}

// otherAnalyzer: a waiver naming another analyzer leaves the finding,
// and is stale whenever maporder runs.
func otherAnalyzer(g, h float64) bool {
	//lint:allow maporder the fixture waives the wrong analyzer
	return g == h
}

// stale: floateq has nothing to flag here.
func stale(i, j int) bool {
	//lint:allow floateq integers compare exactly
	return i == j
}

// unknown: no analyzer has this name.
//
//lint:allow nosuch the analyzer does not exist
var unknown int

type port struct {
	OnEvent func()
}

// hot installs a hook on the event path under a hotchain waiver.
//
//hot:path
func (p *port) hot(fn func()) {
	//lint:allow hotchain the fixture pins that a hot-family waiver is honoured
	p.OnEvent = fn
}
