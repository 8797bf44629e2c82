package progolem

import (
	"testing"

	"repro/internal/ilp"
	"repro/internal/testfix"
)

// TestARMGFanOutMatchesSerial: a beam round's ARMGs generated on the
// tester's rounds at Parallelism 2 and 4 are the serial ones, entry by
// entry, in both coverage modes, for a beam of the bottom clause and for
// a beam of its generalizations.
func TestARMGFanOutMatchesSerial(t *testing.T) {
	for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
		var serial [][]string
		for _, par := range []int{1, 2, 4} {
			w := testfix.NewWorld(12)
			prob := w.ProblemOriginal()
			params := ilp.Defaults()
			params.Parallelism = par
			params.CoverageMode = mode
			tester := ilp.NewTester(prob, params)
			sample := prob.Pos[1:]
			beam := []scored{{clause: ilp.BottomClause(prob, prob.Pos[0], params.Depth, params.MaxRecall)}}
			var rounds [][]string
			for round := 0; round < 2; round++ {
				gens := armgs(tester, beam, sample)
				if len(gens) != len(beam)*len(sample) {
					t.Fatalf("%d ARMGs of %d entries toward %d examples", len(gens), len(beam), len(sample))
				}
				var strs []string
				beam = beam[:0]
				for _, g := range gens {
					s := "<nil>"
					if g != nil {
						s = g.String()
						if len(beam) < 3 {
							beam = append(beam, scored{clause: g})
						}
					}
					strs = append(strs, s)
				}
				rounds = append(rounds, strs)
			}
			if par == 1 {
				serial = rounds
				continue
			}
			for r := range rounds {
				for i := range rounds[r] {
					if rounds[r][i] != serial[r][i] {
						t.Errorf("mode %v Parallelism %d round %d: ARMG %d is\n%s\nserially\n%s",
							mode, par, r, i, rounds[r][i], serial[r][i])
					}
				}
			}
		}
	}
}
