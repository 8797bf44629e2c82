package progolem

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// TestARMGFanOutMatchesSerial: ProGolem's learns at Parallelism 2 and 4,
// whose beam rounds fan their ARMGs out over the tester's rounds, record
// the ARMGs of the serial learn: in both coverage modes the ARMG nodes of
// the provenance stream (parents, seed, clause, counts and disposition,
// in order) are those at Parallelism 1. Sample 4/BeamWidth 2 and Sample
// 8/BeamWidth 3 give a round up to 24 ARMG jobs. internal/ilp checks the
// fan-out itself round by round under both policies.
func TestARMGFanOutMatchesSerial(t *testing.T) {
	problems := []struct {
		name string
		prob func() *ilp.Problem
	}{
		{"world12", func() *ilp.Problem { return testfix.NewWorld(12).ProblemOriginal() }},
		{"uwcse/Original", func() *ilp.Problem {
			ds, err := datasets.GenerateUWCSE(datasets.DefaultUWCSE())
			if err != nil {
				t.Fatal(err)
			}
			prob, err := ds.Problem("Original")
			if err != nil {
				t.Fatal(err)
			}
			return prob
		}},
	}
	for _, p := range problems {
		for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
			for _, sb := range [][2]int{{4, 2}, {8, 3}} {
				var serial []string
				for _, par := range []int{1, 2, 4} {
					params := ilp.Defaults()
					params.Parallelism = par
					params.CoverageMode = mode
					params.Sample, params.BeamWidth = sb[0], sb[1]
					nodes := armgNodes(t, p.prob(), params)
					if par == 1 {
						if len(nodes) == 0 {
							t.Fatalf("%s mode %v sample/beam %v: the serial learn recorded no ARMG", p.name, mode, sb)
						}
						serial = nodes
						continue
					}
					if len(nodes) != len(serial) {
						t.Errorf("%s mode %v sample/beam %v Parallelism %d: %d ARMG nodes, serially %d",
							p.name, mode, sb, par, len(nodes), len(serial))
					}
					for i := range min(len(nodes), len(serial)) {
						if nodes[i] != serial[i] {
							t.Errorf("%s mode %v sample/beam %v Parallelism %d: ARMG node %d is\n%s\nserially\n%s",
								p.name, mode, sb, par, i, nodes[i], serial[i])
							break
						}
					}
				}
			}
		}
	}
}

// armgNodes learns prob with ProGolem under params, recording unbounded
// provenance, and returns the stream's ARMG node lines in order.
func armgNodes(t *testing.T, prob *ilp.Problem, params ilp.Params) []string {
	t.Helper()
	var buf bytes.Buffer
	prov := obs.NewProvenance(&buf, obs.ProvOptions{MaxNodes: -1})
	params.Obs = obs.NewRun(nil, obs.NewRegistry()).WithProvenance(prov)
	if _, err := New().Learn(prob, params); err != nil {
		t.Fatal(err)
	}
	if err := prov.Close(); err != nil {
		t.Fatal(err)
	}
	var nodes []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct{ Kind, Step string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("provenance line %q does not parse: %v", sc.Text(), err)
		}
		if rec.Kind == "node" && rec.Step == obs.StepARMG {
			nodes = append(nodes, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return nodes
}
