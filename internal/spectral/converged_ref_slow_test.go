//go:build slow

package spectral

import (
	"fmt"
	"testing"
)

// TestLanczosMatchesConvergedReferenceDense20k is the lfr-dense-20k half
// of TestLanczosMatchesConvergedReference: the end-to-end benchmark's
// input, seeds 1 and 3, 15-30k reference iterations each.
func TestLanczosMatchesConvergedReferenceDense20k(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkConvergedReference(t, lfrDense20k(t, seed))
		})
	}
}
