//go:build !race

package escape

import (
	"testing"

	"dcqcn/internal/escape/testdata/parity"
)

// TestParityAllocs pins the runtime half of the parity table: which
// constructs allocate on a call. With TestCompilerParity it shows the
// three that allocate without an escape site. (Not built under -race,
// which perturbs allocation counts.)
func TestParityAllocs(t *testing.T) {
	q := parity.NewQueue()
	for _, c := range parityCases {
		n := testing.AllocsPerRun(100, func() { c.call(q) })
		if (n > 0) != c.allocs {
			t.Errorf("%s: %.2f allocs per call, parity table says allocs=%v", c.fn, n, c.allocs)
		}
	}
}
