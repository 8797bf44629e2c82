package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/castor"
	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/progolem"
	"repro/internal/testfix"
)

// bottomUpProblem is one named problem of the bottom-up golden matrix.
type bottomUpProblem struct {
	name string
	prob *ilp.Problem
}

// bottomUpProblems builds the matrix's problems: the testfix worlds of 8
// and 12 students on both schemas, UW-CSE under its four schemas at scale
// 0.5 and HIV under its three at scale 0.1.
func bottomUpProblems(t *testing.T) []bottomUpProblem {
	t.Helper()
	var out []bottomUpProblem
	for _, n := range []int{8, 12} {
		w := testfix.NewWorld(n)
		out = append(out,
			bottomUpProblem{fmt.Sprintf("world%d/original", n), w.ProblemOriginal()},
			bottomUpProblem{fmt.Sprintf("world%d/4nf", n), w.Problem4NF()})
	}
	uw := datasets.DefaultUWCSE()
	uw.Scale = 0.5
	hiv := datasets.DefaultHIV2K4K()
	hiv.Scale = 0.1
	for _, gen := range []func() (*datasets.Dataset, error){
		func() (*datasets.Dataset, error) { return datasets.GenerateUWCSE(uw) },
		func() (*datasets.Dataset, error) { return datasets.GenerateHIV(hiv) },
	} {
		d, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range d.Variants {
			prob, err := d.Problem(v.Name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, bottomUpProblem{d.Name + "/" + v.Name, prob})
		}
	}
	return out
}

// digest is the first 16 hex digits of the SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}

// TestBottomUpLearnersGolden pins, byte for byte, what the two ARMG beam
// learners do: for Castor and ProGolem in both coverage modes, at the
// default search and at Sample/BeamWidth 4/2 and 8/3, on every problem of
// bottomUpProblems at Parallelism 1, one golden line holds SHA-256 digests
// of the learned definition, of the provenance stream (every candidate the
// beam generated, scored, pruned or kept) and of the registry's counters,
// span call counts and per-relation store statistics. A refactor of the
// beam, ARMG or negative reduction that changes any decision shows up as
// a drifted line. Regenerate after an intentional change with
//
//	go test ./internal/experiments -run BottomUpLearnersGolden -args -update
func TestBottomUpLearnersGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("pins single-worker learns; ~10x slower under the race detector")
	}
	problems := bottomUpProblems(t)
	learners := []struct {
		name string
		l    ilp.Learner
	}{{"castor", castor.New()}, {"progolem", progolem.New()}}
	modes := []struct {
		name string
		m    ilp.CoverageMode
	}{{"direct", ilp.CoverageDB}, {"subsumption", ilp.CoverageSubsumption}}
	searches := []struct{ sample, beam int }{{1, 1}, {4, 2}, {8, 3}}

	var lines []string
	for _, l := range learners {
		for _, m := range modes {
			for _, s := range searches {
				for _, p := range problems {
					params := ilp.Defaults()
					params.Parallelism = 1
					params.CoverageMode = m.m
					params.Sample, params.BeamWidth = s.sample, s.beam
					name := fmt.Sprintf("%s/%s/s%db%d/%s", l.name, m.name, s.sample, s.beam, p.name)
					lines = append(lines, name+" "+bottomUpDigests(t, name, l.l, p.prob, params))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "bottomup.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -args -update to create): %v", err)
	}
	if got != string(want) {
		wantLines := strings.Split(string(want), "\n")
		for i, g := range strings.Split(got, "\n") {
			if i >= len(wantLines) || g != wantLines[i] {
				w := ""
				if i < len(wantLines) {
					w = wantLines[i]
				}
				t.Errorf("line %d drifted from %s:\n got  %s\n want %s", i+1, golden, g, w)
			}
		}
	}
}

// bottomUpDigests learns once with a registry and an unbounded provenance
// recorder attached and returns the golden line's digests.
func bottomUpDigests(t *testing.T, name string, learner ilp.Learner, prob *ilp.Problem, params ilp.Params) string {
	t.Helper()
	var stream bytes.Buffer
	prov := obs.NewProvenance(&stream, obs.ProvOptions{MaxNodes: -1})
	reg := obs.NewRegistry()
	params.Obs = obs.NewRun(nil, reg).WithProvenance(prov)
	def, err := learner.Learn(prob, params)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := prov.Close(); err != nil {
		t.Fatalf("%s: provenance: %v", name, err)
	}
	rep := reg.Snapshot()
	var counters []string
	for k, v := range rep.Counters {
		counters = append(counters, fmt.Sprintf("%s=%d", k, v))
	}
	for k, s := range rep.Spans {
		counters = append(counters, fmt.Sprintf("span %s=%d", k, s.Calls))
	}
	for rel, s := range rep.Store {
		counters = append(counters, fmt.Sprintf("relstore %s=%d/%d/%d/%d", rel, s.Lookups, s.TuplesScanned, s.IndexHits, s.INDExpansions))
	}
	sort.Strings(counters)
	text := "nil"
	if def != nil {
		text = def.String()
	}
	return fmt.Sprintf("def=%s prov=%s counters=%s", digest(text), digest(stream.String()), digest(strings.Join(counters, "\n")))
}
