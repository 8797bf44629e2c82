package progolem

import (
	"testing"

	"repro/internal/testfix"
)

// TestNegativeReduceMatchesCountingReference: negative reduction under
// ProGolem's policy (no plan, literals back to front) with bounded
// candidate checks returns, byte for byte, the clause the counting
// reference returns, from the depth-2 classic bottom clause and its ARMGs
// toward the second and the third positive, on all ten schemas;
// testfix.NegativeReduceMatchesCountingReference lists the configurations
// and the coverage-test bounds.
func TestNegativeReduceMatchesCountingReference(t *testing.T) {
	testfix.NegativeReduceMatchesCountingReference(t, false)
}
