package lint_test

import (
	"testing"

	"dcqcn/internal/lint"
	"dcqcn/internal/lint/analysistest"
)

// Each analyzer's fixture suite demonstrates at least one caught
// violation and at least one accepted (clean, allowlisted or waived)
// case; the harness/ and cmd/ fixture packages exercise the
// allowlist boundary by path element.

func TestWalltime(t *testing.T) {
	analysistest.Run(t, lint.Walltime,
		"walltime/model", "walltime/harness", "walltime/cmd/tool")
}

func TestGlobalrand(t *testing.T) {
	analysistest.Run(t, lint.Globalrand,
		"globalrand/model", "globalrand/engine", "globalrand/harness")
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, lint.Maporder, "maporder/a")
}

func TestFloateq(t *testing.T) {
	analysistest.Run(t, lint.Floateq, "floateq/a")
}

func TestSimtime(t *testing.T) {
	analysistest.Run(t, lint.Simtime, "simtimecheck/a")
}

func TestNoconc(t *testing.T) {
	analysistest.Run(t, lint.Noconc, "noconc/model", "noconc/harness")
}

func TestHotchain(t *testing.T) {
	analysistest.Run(t, lint.Hotchain, "hotchain/a")
}
