package castor

import (
	"testing"

	"repro/internal/testfix"
)

// TestNegativeReduceMatchesCountingReference: negative reduction under
// Castor's policy (each schema's plan, Algorithm 5 over inclusion
// instances) with bounded candidate checks returns, byte for byte, the
// clause the counting reference returns, from Castor's bottom clause, its
// safe ARMGs toward the second and the sixth positive and its minimized
// form, on all ten schemas; testfix.NegativeReduceMatchesCountingReference
// lists the configurations and the coverage-test bounds.
func TestNegativeReduceMatchesCountingReference(t *testing.T) {
	testfix.NegativeReduceMatchesCountingReference(t, true)
}
