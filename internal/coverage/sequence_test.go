package coverage

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
)

// seqProbe counts the tests run on it and publishes them as the
// coverage_tests counter, as ilp.Tester's probe does.
type seqProbe struct {
	run   *obs.Run
	tests int64
}

func (p *seqProbe) Publish() {
	p.run.Add(obs.CCoverageTests, p.tests)
	p.tests = 0
}

// seqCovers is the oracle of TestEngineCallSequence. A clause with body
// length L covers positive i ("e") iff i % (L+1) != 0, and negative i
// ("n") iff i % (5−L) == 0 for L ≤ 4, none for longer bodies; a body
// starting with q covers only positives below 3. Over 24 positives and
// 30 negatives that scores L = 1..4 at 12−8, 16−10, 18−15 and 19−30.
func seqCovers(c *logic.Clause, e logic.Atom) bool {
	i := atomIndex(e) % 100
	if c.Body[0].Pred == "q" {
		return e.Pred == "e" && i < 3
	}
	l := len(c.Body)
	if e.Pred == "e" {
		return i%(l+1) != 0
	}
	return l <= 4 && i%(5-l) == 0
}

// seqClause is h(X) :- pred(X), then p(X) until the body has n literals.
func seqClause(pred string, n int, v string) *logic.Clause {
	c := &logic.Clause{Head: logic.Atom{Pred: "h", Args: []logic.Term{logic.Var(v)}}}
	for k := 0; k < n; k++ {
		p := "p"
		if k == 0 {
			p = pred
		}
		c.Body = append(c.Body, logic.Atom{Pred: p, Args: []logic.Term{logic.Var(v)}})
	}
	return c
}

// seqKnown marks the examples below upto that c covers: a sound
// known-covered set, as a generalized parent's cover is.
func seqKnown(c *logic.Clause, examples []logic.Atom, upto int) *Bitset {
	b := New(len(examples))
	for i := 0; i < upto && i < len(examples); i++ {
		if seqCovers(c, examples[i]) {
			b.Set(i)
		}
	}
	return b
}

func seqBits(b *Bitset) string { return fmt.Sprintf("%x", b.words) }

// seqSteps runs the fixed call sequence on en and returns, per call, its
// result and, when reg is non-nil, every non-zero registry counter after
// it.
func seqSteps(en *Engine[*seqProbe], reg *obs.Registry) []string {
	pos := make([]logic.Atom, 24)
	for i := range pos {
		pos[i] = logic.GroundAtom("e", fmt.Sprint(i))
	}
	neg := make([]logic.Atom, 30)
	for i := range neg {
		neg[i] = logic.GroundAtom("n", fmt.Sprint(i))
	}
	c1, c2, c3, c4 := seqClause("p", 1, "X"), seqClause("p", 2, "X"), seqClause("p", 3, "X"), seqClause("p", 4, "X")
	cq := seqClause("q", 1, "X")
	cands := []Candidate{
		{Clause: c1},
		{Clause: c2, KnownPos: seqKnown(c2, pos, 12), KnownNeg: seqKnown(c2, neg, 15)},
		{Clause: c3},
		{Clause: cq},
		{Clause: c4, KnownNeg: seqKnown(c4, neg, 30)},
	}
	scores := func(ss []Score) string {
		var parts []string
		for _, s := range ss {
			mark := ""
			if s.Pruned {
				mark = "!"
			}
			parts = append(parts, fmt.Sprintf("%d-%d%s%s%s", s.P, s.N, mark, seqBits(s.Pos), seqBits(s.Neg)))
		}
		return strings.Join(parts, " ")
	}
	steps := []struct {
		name string
		call func() string
	}{
		{"covered c1 pos", func() string { return seqBits(en.CoveredSet(c1, pos, nil)) }},
		{"covered c1 renamed", func() string { return seqBits(en.CoveredSet(seqClause("p", 1, "Y"), pos, nil)) }},
		{"covered c2 neg known", func() string { return seqBits(en.CoveredSet(c2, neg, seqKnown(c2, neg, 20))) }},
		{"covered c3 pos prefix", func() string { return seqBits(en.CoveredSet(c3, pos[:10], nil)) }},
		{"covered c4 empty", func() string { return seqBits(en.CoveredSet(c4, pos[:0], nil)) }},
		{"atmost c3 neg 5", func() string { return fmt.Sprint(en.CoversAtMost(c3, neg, nil, 5)) }},
		{"atmost c3 neg 40", func() string { return fmt.Sprint(en.CoversAtMost(c3, neg, nil, 40)) }},
		{"atmost c3 neg 5 again", func() string { return fmt.Sprint(en.CoversAtMost(c3, neg, nil, 5)) }},
		{"atmost c4 neg known", func() string { return fmt.Sprint(en.CoversAtMost(c4, neg, seqKnown(c4, neg, 30), 10)) }},
		{"atmost c1 pos known", func() string { return fmt.Sprint(en.CoversAtMost(c1, pos, seqKnown(c1, pos, 24), 12)) }},
		{"atmost cq neg -1", func() string { return fmt.Sprint(en.CoversAtMost(cq, neg, nil, -1)) }},
		{"score unbounded", func() string { return scores(en.ScoreBatch(cands, pos, neg, NoBound, 0)) }},
		{"score floor 4", func() string { return scores(en.ScoreBatch(cands, pos, neg, 4, 0)) }},
		{"score keep 2", func() string { return scores(en.ScoreBatch(cands, pos, neg, NoBound, 2)) }},
		{"score floor 2 keep 1", func() string { return scores(en.ScoreBatch(cands, pos, neg, 2, 1)) }},
		{"score keep 1 reversed", func() string {
			rev := []Candidate{cands[4], cands[3], cands[2], cands[1], cands[0]}
			return scores(en.ScoreBatch(rev, pos, neg, NoBound, 1))
		}},
		{"score unbounded again", func() string { return scores(en.ScoreBatch(cands, pos, neg, NoBound, 0)) }},
		{"score none", func() string { return scores(en.ScoreBatch(nil, pos, neg, 0, 1)) }},
	}
	var out []string
	for _, st := range steps {
		line := st.name + " = " + st.call()
		if reg != nil {
			var cs []string
			for name, v := range reg.Snapshot().Counters {
				if v != 0 {
					cs = append(cs, fmt.Sprintf("%s=%d", name, v))
				}
			}
			sort.Strings(cs)
			line += " | " + strings.Join(cs, " ")
		}
		out = append(out, line)
	}
	return out
}

// TestEngineCallSequence pins the engine's observable behaviour: a fixed
// sequence of CoveredSet, CoversAtMost and ScoreBatch calls — unbounded,
// with a floor, with a keep bound, with known-covered sets, memo on and
// off — must return the recorded results and leave the recorded counters
// after every call at one worker, and return the same results at four.
func TestEngineCallSequence(t *testing.T) {
	cover := func(c *logic.Clause) func(*seqProbe, logic.Atom) bool {
		return func(p *seqProbe, e logic.Atom) bool {
			p.tests++
			return seqCovers(c, e)
		}
	}
	for _, cached := range []bool{false, true} {
		want := seqWant[cached]
		for _, workers := range []int{1, 4} {
			reg := obs.NewRegistry()
			run := obs.NewRun(nil, reg)
			var cache *Cache
			if cached {
				cache = NewCache(0)
			}
			en := NewEngine(cover, func() *seqProbe { return &seqProbe{run: run} }, workers, cache, run)
			if workers > 1 {
				reg = nil // counters follow the schedule past one worker
			}
			got := seqSteps(en, reg)
			if len(got) != len(want) {
				t.Fatalf("cached=%v workers=%d: %d steps, want %d:\n%s", cached, workers, len(got), len(want), strings.Join(got, "\n"))
			}
			for i, w := range want {
				if reg == nil {
					w, _, _ = strings.Cut(w, " | ")
				}
				if got[i] != w {
					t.Errorf("cached=%v workers=%d step %d:\n got %s\nwant %s", cached, workers, i, got[i], w)
				}
			}
		}
	}
}

var seqWant = map[bool][]string{
	false: {
		"covered c1 pos = [aaaaaa] | coverage_tests=24",
		"covered c1 renamed = [aaaaaa] | coverage_tests=48",
		"covered c2 neg known = [9249249] | coverage_tests=71 coverage_tests_skipped=7",
		"covered c3 pos prefix = [2ee] | coverage_tests=81 coverage_tests_skipped=7",
		"covered c4 empty = [] | coverage_tests=81 coverage_tests_skipped=7",
		"atmost c3 neg 5 = false | coverage_tests=92 coverage_tests_skipped=7",
		"atmost c3 neg 40 = true | coverage_tests=122 coverage_tests_skipped=7",
		"atmost c3 neg 5 again = false | coverage_tests=133 coverage_tests_skipped=7",
		"atmost c4 neg known = false | coverage_tests=133 coverage_tests_skipped=37",
		"atmost c1 pos known = true | coverage_tests=145 coverage_tests_skipped=49",
		"atmost cq neg -1 = false | coverage_tests=145 coverage_tests_skipped=49",
		"score unbounded = 12-8[aaaaaa][11111111] 16-10[db6db6][9249249] 18-15[eeeeee][15555555] 3-0[7][0] 19-30[ef7bde][3fffffff] | candidates_scored=5 coverage_tests=372 coverage_tests_skipped=92",
		"score floor 4 = 12-0![aaaaaa][0] 16-10[db6db6][9249249] 18-0![eeeeee][0] 3-0![7][0] 19-0![ef7bde][0] | candidates_pruned=4 candidates_scored=10 coverage_tests=565 coverage_tests_skipped=135 prune_skipped_pairs=34 prune_wasted_pairs=56",
		"score keep 2 = 12-8[aaaaaa][11111111] 16-10[db6db6][9249249] 18-0![eeeeee][0] 3-0![7][0] 19-0![ef7bde][0] | candidates_pruned=7 candidates_scored=15 coverage_tests=761 coverage_tests_skipped=178 prune_skipped_pairs=65 prune_wasted_pairs=85",
		"score floor 2 keep 1 = 12-8[aaaaaa][11111111] 16-10[db6db6][9249249] 18-0![eeeeee][0] 3-0![7][0] 19-0![ef7bde][0] | candidates_pruned=10 candidates_scored=20 coverage_tests=953 coverage_tests_skipped=221 prune_skipped_pairs=100 prune_wasted_pairs=110",
		"score keep 1 reversed = 19-30[ef7bde][3fffffff] 3-0[7][0] 18-15[eeeeee][15555555] 16-10[db6db6][9249249] 12-0![aaaaaa][0] | candidates_pruned=11 candidates_scored=25 coverage_tests=1175 coverage_tests_skipped=264 prune_skipped_pairs=105 prune_wasted_pairs=135",
		"score unbounded again = 12-8[aaaaaa][11111111] 16-10[db6db6][9249249] 18-15[eeeeee][15555555] 3-0[7][0] 19-30[ef7bde][3fffffff] | candidates_pruned=11 candidates_scored=30 coverage_tests=1402 coverage_tests_skipped=307 prune_skipped_pairs=105 prune_wasted_pairs=135",
		"score none =  | candidates_pruned=11 candidates_scored=30 coverage_tests=1402 coverage_tests_skipped=307 prune_skipped_pairs=105 prune_wasted_pairs=135",
	},
	true: {
		"covered c1 pos = [aaaaaa] | coverage_cache_misses=1 coverage_tests=24",
		"covered c1 renamed = [aaaaaa] | coverage_cache_hits=1 coverage_cache_misses=1 coverage_tests=24",
		"covered c2 neg known = [9249249] | coverage_cache_hits=1 coverage_cache_misses=2 coverage_tests=47 coverage_tests_skipped=7",
		"covered c3 pos prefix = [2ee] | coverage_cache_hits=1 coverage_cache_misses=3 coverage_tests=57 coverage_tests_skipped=7",
		"covered c4 empty = [] | coverage_cache_hits=1 coverage_cache_misses=4 coverage_tests=57 coverage_tests_skipped=7",
		"atmost c3 neg 5 = false | coverage_cache_hits=1 coverage_cache_misses=5 coverage_tests=68 coverage_tests_skipped=7",
		"atmost c3 neg 40 = true | coverage_cache_hits=1 coverage_cache_misses=6 coverage_tests=98 coverage_tests_skipped=7",
		"atmost c3 neg 5 again = false | coverage_cache_hits=2 coverage_cache_misses=6 coverage_tests=98 coverage_tests_skipped=7",
		"atmost c4 neg known = false | coverage_cache_hits=2 coverage_cache_misses=7 coverage_tests=98 coverage_tests_skipped=37",
		"atmost c1 pos known = true | coverage_cache_hits=3 coverage_cache_misses=7 coverage_tests=98 coverage_tests_skipped=37",
		"atmost cq neg -1 = false | coverage_cache_hits=3 coverage_cache_misses=8 coverage_tests=98 coverage_tests_skipped=37",
		"score unbounded = 12-8[aaaaaa][11111111] 16-10[db6db6][9249249] 18-15[eeeeee][15555555] 3-0[7][0] 19-30[ef7bde][3fffffff] | candidates_scored=5 coverage_cache_hits=6 coverage_cache_misses=15 coverage_tests=246 coverage_tests_skipped=75",
		"score floor 4 = 12-0![aaaaaa][0] 16-10[db6db6][9249249] 18-0![eeeeee][0] 3-0![7][0] 19-0![ef7bde][0] | candidates_pruned=4 candidates_scored=10 coverage_cache_hits=15 coverage_cache_misses=15 coverage_tests=246 coverage_tests_skipped=75 prune_skipped_pairs=30",
		"score keep 2 = 12-8[aaaaaa][11111111] 16-10[db6db6][9249249] 18-0![eeeeee][0] 3-0![7][0] 19-0![ef7bde][0] | candidates_pruned=7 candidates_scored=15 coverage_cache_hits=24 coverage_cache_misses=15 coverage_tests=246 coverage_tests_skipped=75 prune_skipped_pairs=60",
		"score floor 2 keep 1 = 12-8[aaaaaa][11111111] 16-10[db6db6][9249249] 18-0![eeeeee][0] 3-0![7][0] 19-0![ef7bde][0] | candidates_pruned=10 candidates_scored=20 coverage_cache_hits=33 coverage_cache_misses=15 coverage_tests=246 coverage_tests_skipped=75 prune_skipped_pairs=90",
		"score keep 1 reversed = 19-30[ef7bde][3fffffff] 3-0[7][0] 18-15[eeeeee][15555555] 16-10[db6db6][9249249] 12-0![aaaaaa][0] | candidates_pruned=11 candidates_scored=25 coverage_cache_hits=43 coverage_cache_misses=15 coverage_tests=246 coverage_tests_skipped=75 prune_skipped_pairs=90",
		"score unbounded again = 12-8[aaaaaa][11111111] 16-10[db6db6][9249249] 18-15[eeeeee][15555555] 3-0[7][0] 19-30[ef7bde][3fffffff] | candidates_pruned=11 candidates_scored=30 coverage_cache_hits=53 coverage_cache_misses=15 coverage_tests=246 coverage_tests_skipped=75 prune_skipped_pairs=90",
		"score none =  | candidates_pruned=11 candidates_scored=30 coverage_cache_hits=53 coverage_cache_misses=15 coverage_tests=246 coverage_tests_skipped=75 prune_skipped_pairs=90",
	},
}
