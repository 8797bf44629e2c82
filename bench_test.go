package sirl_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§9), plus ablation benches for Castor's design
// choices (DESIGN.md). Each benchmark iteration regenerates the experiment
// at a reduced scale so `go test -bench=.` finishes in minutes; run the
// cmd/experiments binary for full laptop-scale tables.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/castor"
	"repro/internal/coverage"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// reportObsMetrics attaches the per-op values of the run's key counters
// (§7.5 machinery: coverage tests executed, cache skips, store tuples
// scanned) to the benchmark output.
func reportObsMetrics(b *testing.B, reg *obs.Registry) {
	b.Helper()
	n := float64(b.N)
	b.ReportMetric(float64(reg.Get(obs.CCoverageTests))/n, "covtests/op")
	b.ReportMetric(float64(reg.Get(obs.CCoverageSkipped))/n, "covskips/op")
	b.ReportMetric(float64(reg.Get(obs.CCoverageCacheHits))/n, "covhits/op")
	b.ReportMetric(float64(reg.Get(obs.CTuplesScanned))/n, "tuples/op")
}

// benchConfig is the reduced scale used by every table/figure benchmark.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.12, Folds: 2, Parallelism: 2, Seed: 1}
}

func BenchmarkTable2Stats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable9HIV(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable10UWCSE(b *testing.B) {
	cfg := benchConfig()
	reg := obs.NewRegistry()
	cfg.Obs = obs.NewRun(nil, reg)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 20 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
	reportObsMetrics(b, reg)
}

func BenchmarkTable11IMDb(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.25
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable12GeneralINDs(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable13StoredProcedures(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[0].SpeedupWithProcs, "speedup")
		}
	}
}

func BenchmarkFigure2Parallelism(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(cfg, []int{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3QueryComplexity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(cfg, 3, []int{4, 6})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[0].AvgMQs, "avgMQs")
		}
	}
}

// --- ablations -----------------------------------------------------------

// benchUWCSEProblem builds one small UW-CSE problem for the ablations.
func benchUWCSEProblem(tb testing.TB, indexed bool) *ilp.Problem {
	tb.Helper()
	cfg := datasets.DefaultUWCSE()
	cfg.Students, cfg.Courses = 16, 12
	ds, err := datasets.GenerateUWCSE(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	prob, err := ds.Problem("Original")
	if err != nil {
		tb.Fatal(err)
	}
	if !indexed {
		v := ds.Variants[0]
		un := relstore.NewUnindexedInstance(v.Schema)
		for _, r := range v.Schema.Relations() {
			for _, tp := range v.Instance.Table(r.Name).Tuples() {
				un.MustInsert(r.Name, tp...)
			}
		}
		prob.Instance = un
	}
	return prob
}

func benchCastorParams() ilp.Params {
	p := ilp.Defaults()
	p.Sample = 4
	p.BeamWidth = 2
	return p
}

func runCastor(b *testing.B, prob *ilp.Problem, params ilp.Params) {
	b.Helper()
	def, err := castor.New().Learn(prob, params)
	if err != nil {
		b.Fatal(err)
	}
	if def.IsEmpty() {
		b.Fatal("learned nothing")
	}
}

// buildScoringCandidates builds one beam-sized batch of bottom-clause
// generalizations (leave-one-literal-out, the shape ARMG produces) for the
// candidate-scoring benchmarks.
func buildScoringCandidates(tb testing.TB, prob *ilp.Problem) []coverage.Candidate {
	tb.Helper()
	plan := relstore.CompilePlan(prob.Instance.Schema(), false)
	bottom := castor.BottomClause(prob, plan, prob.Pos[0], benchCastorParams())
	var cands []coverage.Candidate
	for drop := range bottom.Body {
		body := make([]logic.Atom, 0, len(bottom.Body)-1)
		body = append(body, bottom.Body[:drop]...)
		body = append(body, bottom.Body[drop+1:]...)
		cands = append(cands, coverage.Candidate{Clause: &logic.Clause{Head: bottom.Head, Body: body}})
	}
	return cands
}

// benchScoreBatch times one candidate-scoring configuration; shared between
// BenchmarkCandidateScoring and TestScoringPoolGates.
func benchScoreBatch(b *testing.B, prob *ilp.Problem, cands []coverage.Candidate, workers int, disableCache bool) {
	params := benchCastorParams()
	params.CoverageMode = ilp.CoverageSubsumption
	params.Parallelism = workers
	params.DisableCoverageCache = disableCache
	reg := obs.NewRegistry()
	params.Obs = obs.NewRun(nil, reg)
	tester := ilp.NewTester(prob, params)
	// Warm the saturation cache so both variants time scoring, not
	// bottom-clause construction.
	tester.ScoreBatch(cands, prob.Pos, prob.Neg, coverage.NoBound, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores := tester.ScoreBatch(cands, prob.Pos, prob.Neg, coverage.NoBound, 0)
		if len(scores) != len(cands) {
			b.Fatalf("scores = %d, want %d", len(scores), len(cands))
		}
	}
	reportObsMetrics(b, reg)
	if workers > 1 {
		// Whole-run worker utilization of the scoring pool, for
		// TestScoringPoolGates' pool_busy_ratio floor.
		b.ReportMetric(reg.Gauge(obs.GPoolBusyRatio), "pool_busy_ratio")
		// Wall-weighted critical-chain/mean-chain quotient, for
		// TestScoringPoolGates' pool_straggler_ratio ceiling: a healthy pool
		// keeps the slowest worker's chain near the mean.
		b.ReportMetric(reg.Gauge(obs.GPoolStraggler), "pool_straggler_ratio")
	}
}

// BenchmarkCandidateScoring isolates the batched candidate scorer: one
// leave-one-literal-out batch scored against every example, serial versus
// one worker per core. The memo cache is off so every iteration measures raw
// scoring; the "cached" variant leaves it on to show the steady-state cost
// once the memo cache answers repeats.
func BenchmarkCandidateScoring(b *testing.B) {
	prob := benchUWCSEProblem(b, true)
	cands := buildScoringCandidates(b, prob)
	b.Run("serial", func(b *testing.B) { benchScoreBatch(b, prob, cands, 1, true) })
	b.Run("parallel", func(b *testing.B) { benchScoreBatch(b, prob, cands, runtime.GOMAXPROCS(0), true) })
	b.Run("cached", func(b *testing.B) { benchScoreBatch(b, prob, cands, runtime.GOMAXPROCS(0), false) })
}

// subsumptionShape is one (source, target) clause pair exercising a
// distinct regime of the θ-subsumption engine: two bodies under the shared
// nullary head x. Targets are ground, like the bottom clauses coverage
// testing probes.
type subsumptionShape struct {
	name string
	c, d *logic.Clause
	want bool
}

// subsumptionShapes builds the benchmark clause pairs: a dense
// repeated-variable component (heavy backtracking, both satisfiable and
// not), a long chain (propagation-bound), and a ground mismatch (the
// fail-fast path: every domain comes out empty, so no search runs).
func subsumptionShapes() []subsumptionShape {
	// Dense component: source demands p(Xi,Xj) for every i<j over 6
	// variables; the target is the i<j edge set over 8 constants minus a
	// few edges, so the matcher must search for a 6-subset avoiding the
	// holes. Removing one endpoint of two disjoint missing edges leaves a
	// witness (satisfiable); four disjoint missing edges cannot all be
	// avoided by dropping two constants (unsatisfiable, full search).
	denseSrc := func() []logic.Atom {
		var body []logic.Atom
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				body = append(body, logic.NewAtom("p", logic.Var(fmt.Sprintf("X%d", i)), logic.Var(fmt.Sprintf("X%d", j))))
			}
		}
		return body
	}
	denseTgt := func(missing [][2]int) []logic.Atom {
		gap := make(map[[2]int]bool, len(missing))
		for _, m := range missing {
			gap[m] = true
		}
		var body []logic.Atom
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				if gap[[2]int{i, j}] {
					continue
				}
				body = append(body, logic.GroundAtom("p", fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", j)))
			}
		}
		return body
	}
	// Chain: a 12-literal variable chain into a 48-constant ground chain
	// with a dead-end decoy branch at every node; forward pruning should
	// discard the decoys without descending into them.
	var chainSrc, chainTgt []logic.Atom
	for i := 0; i < 12; i++ {
		chainSrc = append(chainSrc, logic.NewAtom("q", logic.Var(fmt.Sprintf("Y%d", i)), logic.Var(fmt.Sprintf("Y%d", i+1))))
	}
	for i := 0; i < 48; i++ {
		chainTgt = append(chainTgt, logic.GroundAtom("q", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)))
		chainTgt = append(chainTgt, logic.GroundAtom("q", fmt.Sprintf("c%d", i), fmt.Sprintf("dead%d", i)))
	}
	// Ground mismatch: every source literal anchors on a constant the
	// target never holds in that position, over a 200-tuple target.
	var mismatchSrc, mismatchTgt []logic.Atom
	for i := 0; i < 10; i++ {
		mismatchSrc = append(mismatchSrc, logic.NewAtom("r", logic.Var(fmt.Sprintf("Z%d", i)), logic.Const("absent")))
	}
	for i := 0; i < 200; i++ {
		mismatchTgt = append(mismatchTgt, logic.GroundAtom("r", fmt.Sprintf("e%d", i), fmt.Sprintf("v%d", i%7)))
	}
	headed := func(body []logic.Atom) *logic.Clause { return logic.NewClause(logic.NewAtom("x"), body...) }
	return []subsumptionShape{
		{"dense_sat", headed(denseSrc()), headed(denseTgt([][2]int{{0, 1}, {2, 3}})), true},
		{"dense_unsat", headed(denseSrc()), headed(denseTgt([][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}})), false},
		{"chain", headed(chainSrc), headed(chainTgt), true},
		{"ground_mismatch", headed(mismatchSrc), headed(mismatchTgt), false},
	}
}

// benchSubsumptionCompiled times the compile-once/match-many path on one
// shape.
func benchSubsumptionCompiled(b *testing.B, shape subsumptionShape) {
	reg := obs.NewRegistry()
	run := obs.NewRun(nil, reg)
	cd := subsume.Compile(shape.d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := cd.SubsumesR(run, shape.c); got != shape.want {
			b.Fatalf("%s: got %v, want %v", shape.name, got, shape.want)
		}
	}
	b.ReportMetric(float64(reg.Get(obs.CSubsumptionNodes))/float64(b.N), "nodes/op")
}

// BenchmarkSubsumption measures the θ-subsumption engine itself on the
// shapes above, reporting backtracking nodes per op. The oneshot variants
// pay target compilation every call (the engine's Subsumes entry point);
// the compiled variants compile the target once and probe it repeatedly,
// the coverage-testing access pattern.
func BenchmarkSubsumption(b *testing.B) {
	for _, shape := range subsumptionShapes() {
		b.Run(shape.name+"/oneshot", func(b *testing.B) {
			reg := obs.NewRegistry()
			run := obs.NewRun(nil, reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := subsume.Compile(shape.d).SubsumesR(run, shape.c); got != shape.want {
					b.Fatalf("%s: got %v, want %v", shape.name, got, shape.want)
				}
			}
			b.ReportMetric(float64(reg.Get(obs.CSubsumptionNodes))/float64(b.N), "nodes/op")
		})
		b.Run(shape.name+"/compiled", func(b *testing.B) { benchSubsumptionCompiled(b, shape) })
	}
}

// benchBottomClause times ground-bottom-clause saturation. Besides the
// counter-derived tuples/op, it reports the relstore access statistics of
// the construction — tuples the store actually examined and tuples pulled
// in by IND-chase expansions.
func benchBottomClause(b *testing.B, prob *ilp.Problem, plan *relstore.Plan) {
	params := benchCastorParams()
	reg := obs.NewRegistry()
	params.Obs = obs.NewRun(nil, reg)
	var lits int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc := castor.GroundBottomClause(prob, plan, prob.Pos[i%len(prob.Pos)], params)
		lits += len(bc.Body)
	}
	n := float64(b.N)
	b.ReportMetric(float64(lits)/n, "lits/op")
	b.ReportMetric(float64(reg.Get(obs.CTuplesScanned))/n, "tuples/op")
	var scanned, expansions int64
	for _, st := range reg.Snapshot().Store {
		scanned += st.TuplesScanned
		expansions += st.INDExpansions
	}
	b.ReportMetric(float64(scanned)/n, "tuples_scanned/op")
	b.ReportMetric(float64(expansions)/n, "ind_expansions/op")
}

// BenchmarkBottomClause measures Castor's ground-bottom-clause saturation
// (IND chasing included) on UW-CSE. The construction is serial, so it has
// one sub-benchmark, "serial".
func BenchmarkBottomClause(b *testing.B) {
	prob := benchUWCSEProblem(b, true)
	plan := relstore.CompilePlan(prob.Instance.Schema(), false)
	b.Run("serial", func(b *testing.B) { benchBottomClause(b, prob, plan) })
}

// BenchmarkAblationCoverageMode compares direct database evaluation with
// subsumption against ground bottom clauses (§7.5.3).
func BenchmarkAblationCoverageMode(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    ilp.CoverageMode
	}{{"db", ilp.CoverageDB}, {"subsumption", ilp.CoverageSubsumption}} {
		b.Run(mode.name, func(b *testing.B) {
			prob := benchUWCSEProblem(b, true)
			params := benchCastorParams()
			params.CoverageMode = mode.m
			reg := obs.NewRegistry()
			params.Obs = obs.NewRun(nil, reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCastor(b, prob, params)
			}
			reportObsMetrics(b, reg)
		})
	}
}

// BenchmarkAblationCoverageCache toggles the §7.5.4 known-covered shortcut.
func BenchmarkAblationCoverageCache(b *testing.B) {
	for _, c := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(c.name, func(b *testing.B) {
			prob := benchUWCSEProblem(b, true)
			params := benchCastorParams()
			params.DisableCoverageCache = c.disable
			reg := obs.NewRegistry()
			params.Obs = obs.NewRun(nil, reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCastor(b, prob, params)
			}
			reportObsMetrics(b, reg)
		})
	}
}

// BenchmarkAblationMinimization toggles θ-subsumption clause reduction
// (§7.5.5).
func BenchmarkAblationMinimization(b *testing.B) {
	for _, c := range []struct {
		name string
		on   bool
	}{{"on", true}, {"off", false}} {
		b.Run(c.name, func(b *testing.B) {
			prob := benchUWCSEProblem(b, true)
			params := benchCastorParams()
			params.Minimize = c.on
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCastor(b, prob, params)
			}
		})
	}
}

// BenchmarkObsOverhead compares an uninstrumented Castor run (nil Obs,
// the nop default) with one feeding a live counter registry; the delta is
// the cost of the instrumentation itself.
func BenchmarkObsOverhead(b *testing.B) {
	for _, c := range []struct {
		name string
		live bool
	}{{"nop", false}, {"registry", true}} {
		b.Run(c.name, func(b *testing.B) {
			prob := benchUWCSEProblem(b, true)
			params := benchCastorParams()
			if c.live {
				params.Obs = obs.NewRun(nil, obs.NewRegistry())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCastor(b, prob, params)
			}
		})
	}
}

// --- relstore: legacy versus columnar ------------------------------------

// relstoreBenchData is the shared input of the relstore load/probe
// benchmarks: the HIV Initial instance's raw rows (extracted once so load
// iterations time store construction alone) plus the probe workload —
// present and absent bond tuples and atom constants, the values
// bottom-clause saturation probes with.
type relstoreBenchData struct {
	schema  *relstore.Schema
	rels    []string
	rows    map[string][][]string
	total   int
	present []relstore.Tuple
	absent  []relstore.Tuple
	atoms   []string
}

func benchRelstoreData(tb testing.TB) *relstoreBenchData {
	tb.Helper()
	cfg := datasets.DefaultHIV2K4K()
	cfg.Only = "Initial"
	ds, err := datasets.GenerateHIV(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	v := ds.Variants[0]
	d := &relstoreBenchData{schema: v.Schema, rows: make(map[string][][]string)}
	for _, r := range v.Schema.Relations() {
		d.rels = append(d.rels, r.Name)
		v.Instance.Table(r.Name).ForEachTuple(func(tp relstore.Tuple) bool {
			d.rows[r.Name] = append(d.rows[r.Name], append([]string(nil), tp...))
			d.total++
			return true
		})
	}
	for i, row := range d.rows["bonds"] {
		if i%7 != 0 {
			continue
		}
		d.present = append(d.present, relstore.Tuple(row))
		// Swapping the endpoints and mangling one atom name yields a tuple
		// that is never in the store but probes the same key distribution.
		d.absent = append(d.absent, relstore.Tuple{row[0], row[2], row[1] + "x"})
		d.atoms = append(d.atoms, row[1])
	}
	return d
}

// benchRelstoreLoad times building (and for the columnar store freezing) a
// full instance from raw rows.
func benchRelstoreLoad(b *testing.B, d *relstoreBenchData, columnar bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if columnar {
			inst := relstore.NewInstance(d.schema)
			for _, rel := range d.rels {
				for _, row := range d.rows[rel] {
					inst.MustInsert(rel, row...)
				}
			}
			inst.Freeze()
		} else {
			inst := relstore.NewLegacyInstance(d.schema)
			for _, rel := range d.rels {
				for _, row := range d.rows[rel] {
					inst.MustInsert(rel, row...)
				}
			}
		}
	}
	b.ReportMetric(float64(d.total), "tuples/op")
}

func BenchmarkRelstoreLoad(b *testing.B) {
	d := benchRelstoreData(b)
	b.Run("legacy", func(b *testing.B) { benchRelstoreLoad(b, d, false) })
	b.Run("columnar", func(b *testing.B) { benchRelstoreLoad(b, d, true) })
}

// benchRelstoreProbe runs the store probe mix against one implementation:
// per op, two exact-membership probes (one hit, one miss) and one
// bound-column literal probe answered the way each implementation's solver
// answers it — the access pattern coverage testing issues millions of
// times per learning run.
func benchRelstoreProbe(b *testing.B, d *relstoreBenchData, contains func(relstore.Tuple) bool, literal func(string) int) {
	b.ReportAllocs()
	b.ResetTimer()
	var hits, rows int
	for i := 0; i < b.N; i++ {
		if contains(d.present[i%len(d.present)]) {
			hits++
		}
		if contains(d.absent[i%len(d.absent)]) {
			b.Fatal("absent tuple found")
		}
		rows += literal(d.atoms[i%len(d.atoms)])
	}
	if hits == 0 || rows == 0 {
		b.Fatal("probe workload found nothing")
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// benchRelstoreContaining is the colder saturation probe of bottom-clause
// construction (tuples holding a constant in any column), kept as its own
// pair so the probe benchmark TestColumnarProbeBeatsLegacy gates stays
// the hot path.
func benchRelstoreContaining(b *testing.B, d *relstoreBenchData, containing func(string) int) {
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows += containing(d.atoms[i%len(d.atoms)])
	}
	if rows == 0 {
		b.Fatal("probe workload found nothing")
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// benchLegacyBonds/benchColumnarBonds build each store once and return its
// bonds table.
func benchLegacyBonds(d *relstoreBenchData) *relstore.LegacyTable {
	inst := relstore.NewLegacyInstance(d.schema)
	for _, rel := range d.rels {
		for _, row := range d.rows[rel] {
			inst.MustInsert(rel, row...)
		}
	}
	return inst.Table("bonds")
}

func benchColumnarBonds(d *relstoreBenchData) *relstore.Table {
	inst := relstore.NewInstance(d.schema)
	for _, rel := range d.rels {
		for _, row := range d.rows[rel] {
			inst.MustInsert(rel, row...)
		}
	}
	inst.Freeze()
	return inst.Table("bonds")
}

// benchRelstoreProbeLegacy/Columnar adapt each store's probe surface to
// benchRelstoreProbe's closures. The literal probe is the operation the
// solver issues per body literal with one bound argument: the legacy
// evaluator materialized the matching tuples through TuplesWith, the
// columnar evaluator resolves the shared CSR posting list and binds values
// in place, so each side runs its own hot path on the same query stream.
func benchRelstoreProbeLegacy(b *testing.B, d *relstoreBenchData) {
	t := benchLegacyBonds(d)
	req := make(map[int]string, 1)
	benchRelstoreProbe(b, d, t.Contains,
		func(v string) int { req[1] = v; return len(t.TuplesWith(req)) })
}

func benchRelstoreProbeColumnar(b *testing.B, d *relstoreBenchData) {
	t := benchColumnarBonds(d)
	benchRelstoreProbe(b, d, t.Contains,
		func(v string) int { return len(t.MatchingIndexes(1, v)) })
}

// BenchmarkRelstoreProbe compares the frozen columnar store's probe
// throughput against the legacy map-based store on an identical workload;
// TestColumnarProbeBeatsLegacy gates the pair's time and memory ratios.
// The containing sub-benchmarks cover the saturation probe, ungated.
func BenchmarkRelstoreProbe(b *testing.B) {
	d := benchRelstoreData(b)
	b.Run("legacy", func(b *testing.B) { benchRelstoreProbeLegacy(b, d) })
	b.Run("columnar", func(b *testing.B) { benchRelstoreProbeColumnar(b, d) })
	lt, ct := benchLegacyBonds(d), benchColumnarBonds(d)
	b.Run("containing/legacy", func(b *testing.B) {
		benchRelstoreContaining(b, d, func(v string) int { return len(lt.TuplesContaining(v)) })
	})
	b.Run("containing/columnar", func(b *testing.B) {
		benchRelstoreContaining(b, d, func(v string) int { return len(ct.TuplesContaining(v)) })
	})
}

// BenchmarkAblationIndexes compares the indexed store with full scans.
func BenchmarkAblationIndexes(b *testing.B) {
	for _, c := range []struct {
		name    string
		indexed bool
	}{{"indexed", true}, {"scan", false}} {
		b.Run(c.name, func(b *testing.B) {
			prob := benchUWCSEProblem(b, c.indexed)
			params := benchCastorParams()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCastor(b, prob, params)
			}
		})
	}
}
