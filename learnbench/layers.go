package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/castor"
	"repro/internal/coverage"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/progol"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// reduceCutoff mirrors castor's: Learn minimizes only bottom clauses of at
// most this many literals.
const reduceCutoff = 200

// reduceSeeds is how many positives, in order, serve as seeds for the
// subsume.ReduceR timing: castor.Learn tries at most three seeds per clause.
const reduceSeeds = 3

// progolPos bounds the examples of the progol.Learn timing: the first
// progolPos positives and twice as many negatives of the first schema,
// uwcse-aleph's example count, over the workload's own instance.
const progolPos = 34

// canonicalReps repeats the logic.CanonicalKey timing over its clauses:
// one call takes microseconds.
const canonicalReps = 20

// calls accumulates the time and heap allocation of repeated calls to one
// public function.
type calls struct {
	n     int
	total time.Duration
	bytes uint64
}

func (c calls) meanUS() float64 { return ratio(us(c.total), float64(c.n)) }
func (c calls) meanMS() float64 { return ratio(ms(c.total), float64(c.n)) }
func (c calls) perCallB() float64 {
	return ratio(float64(c.bytes), float64(c.n))
}

// timeEach calls f(0..n-1), each inside a span named name under parent,
// and adds the calls' time and heap allocation to c.
func (r *recorder) timeEach(name string, parent, n int, c *calls, f func(j int)) {
	r.spans = slices.Grow(r.spans, n) // keep span storage out of the allocation count
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for j := 0; j < n; j++ {
		c.total += r.call(name, parent, func() { f(j) })
	}
	runtime.ReadMemStats(&m1)
	c.n += n
	c.bytes += m1.TotalAlloc - m0.TotalAlloc
}

// layerSums collects one traced run's measurements over all schemas.
type layerSums struct {
	covers, bottom, compile, probe, reduce, canon    calls
	coveredPar, coveredSerial, scoreBatch, ilpBottom calls
	progol                                           time.Duration
	bottomLits                                       int
	evaluate                                         time.Duration
	learnPlain, learnTraced                          float64 // Σ over schemas of median learn seconds
	pairs                                            int
	counts                                           map[obs.Counter]int64 // first traced learn per schema, summed
	busyRatio                                        []float64
}

// counted are the program counters the count metrics and estimates read.
var counted = []obs.Counter{
	obs.CTuplesScanned, obs.CSaturationMisses, obs.CBottomClauses,
	obs.CSubsumptionNodes, obs.CSubsumptionBudgetExhausted,
	obs.CCoverageTests, obs.CCoverageSkipped, obs.CCoverageCacheHits, obs.CCoverageCacheMisses,
	obs.CCandidatesScored, obs.CCandidatesPruned, obs.CPruneSkippedPairs, obs.CPruneWastedPairs,
	obs.CClausesAccepted, obs.CClausesRejected,
}

// runTraced is the traced run: per schema, learns alternating without and
// with an obs registry, a fixed number of pairs that lasts about
// cfg.seconds in all (the registry's counters give the count metrics, the
// pairs give obs.overhead_frac), then one sweep that times each layer's
// public functions on the schema's inputs and the definition learned.
// Spans are written as a Chrome trace at the end.
func runTraced(cfg config, out io.Writer) (result, error) {
	w := cfg.w
	hardStop := time.Now().Add(cfg.seconds + runSlack)
	rec := newRecorder()
	traceNames := []string{"setup"}
	for _, s := range w.schemas {
		traceNames = append(traceNames, "schema "+s)
	}

	setup := rec.begin("learnbench.setup", 0, -1)
	var genErr error
	var ds *datasets.Dataset
	genT := rec.call("datasets."+w.generator, setup, func() { ds, genErr = w.generate(cfg.seed, w.scale) })
	if genErr != nil {
		return result{}, fmt.Errorf("generate %s: %w", w.name, genErr)
	}
	freezeT := rec.call("relstore.Instance.Freeze", setup, func() {
		for _, v := range ds.Variants {
			v.Instance.Freeze()
		}
	})
	rec.end(setup)

	probs, err := w.problems(ds)
	if err != nil {
		return result{}, err
	}
	chk, err := newChecker(w, cfg.seed, cfg.defs)
	if err != nil {
		return result{}, err
	}
	chk.dataset(0)
	params := w.params()
	params.Parallelism = parallelism
	l := w.learner()
	warm, overran := runPass(l, probs, params, hardStop)
	chk.pass("warm-up", probs, warm)
	sum := layerSums{counts: map[obs.Counter]int64{}}
	// Over all schemas, the pairs learn as many passes as the untraced run
	// learns datasets: about cfg.seconds.
	pairs := max(1, w.datasets(cfg.seconds)/2)
	for i := 0; i < len(probs) && !overran; i++ {
		root := rec.begin("learnbench.schema", i+1, -1)
		if overran = sum.learnPairs(rec, root, chk, i, l, probs[i], params, pairs, hardStop); !overran {
			def := warm[i].def
			if def == nil {
				def = logic.NewDefinition(probs[i].Target.Name)
			}
			sum.sweep(rec, root, probs[i], params, def)
			if i == 0 {
				var r learnResult
				rec.call("progol.Learner.Learn.sample", root, func() { r = learnProgolSample(probs[0], hardStop) })
				chk.sample(r)
				sum.progol, overran = r.elapsed, r.err == errOverrun
			}
		}
		rec.end(root)
	}
	if overran {
		// An abandoned learn still holds the CPU: nothing more is measured.
		report(out, chk)
		return result{Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metric{}}, nil
	}

	metrics := map[string]metric{}
	fmt.Fprintln(out, envLine(cfg, sum.pairs))
	for _, m := range sum.values(genT, freezeT) {
		metrics[m.name] = metric{m.value, m.unit}
		fmt.Fprintf(out, "%-28s %16.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintln(out)
	sum.writeEstimates(out, w, params)
	fmt.Fprintln(out)
	rec.writeSelfTable(out)
	report(out, chk)
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := rec.writeChromeTrace(path, traceNames); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintln(out, "trace written to", path)
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}, nil
}

// learnPairs learns problem i alternately without and with an obs
// registry, n times each, checking every definition. The first traced
// learn's counters are kept. It reports whether a learn overran.
func (s *layerSums) learnPairs(rec *recorder, root int, chk *checker, i int, l ilp.Learner, p *ilp.Problem,
	params ilp.Params, n int, hardStop time.Time) bool {
	var plain, traced []float64
	for k := range n {
		label := fmt.Sprintf("pair=%d", k)
		var r learnResult
		rec.call(chk.w.module+".Learner.Learn", root, func() { r = learn(l, p, params, hardStop) })
		chk.learn(label, i, r)
		if r.err == errOverrun {
			return true
		}
		plain = append(plain, r.elapsed.Seconds())

		reg := obs.NewRegistry()
		tp := params
		tp.Obs = obs.NewRun(nil, reg)
		rec.call(chk.w.module+".Learner.Learn.traced", root, func() { r = learn(l, p, tp, hardStop) })
		chk.learn(label+" traced", i, r)
		if r.err == errOverrun {
			return true
		}
		traced = append(traced, r.elapsed.Seconds())
		s.pairs++
		if k == 0 {
			for _, c := range counted {
				s.counts[c] += reg.Get(c)
			}
			s.busyRatio = append(s.busyRatio, reg.Gauge(obs.GPoolBusyRatio))
		}
	}
	s.learnPlain += median(plain)
	s.learnTraced += median(traced)
	return false
}

// sweep times each layer's public functions once on the schema's inputs
// and the definition learned on it.
func (s *layerSums) sweep(rec *recorder, root int, p *ilp.Problem, params ilp.Params, def *logic.Definition) {
	p.Instance.SetObs(nil)
	examples := append(append([]logic.Atom(nil), p.Pos...), p.Neg...)
	ne := len(examples)
	clauses := def.Clauses
	pairs := len(clauses) * ne
	pair := func(j int) (*logic.Clause, int) { return clauses[j/ne], j % ne }

	rec.timeEach("relstore.Instance.CoversExample", root, pairs, &s.covers, func(j int) {
		c, e := pair(j)
		p.Instance.CoversExample(c, examples[e])
	})

	plan := relstore.CompilePlan(p.Instance.Schema(), params.SubsetINDs)
	ground := make([]*logic.Clause, ne)
	rec.timeEach("castor.GroundBottomClause", root, ne, &s.bottom, func(j int) {
		ground[j] = castor.GroundBottomClause(p, plan, examples[j], params)
	})
	for _, g := range ground {
		s.bottomLits += len(g.Body)
	}
	compiled := make([]*subsume.Compiled, ne)
	rec.timeEach("subsume.Compile", root, ne, &s.compile, func(j int) { compiled[j] = subsume.Compile(ground[j]) })
	rec.timeEach("subsume.Compiled.SubsumesR", root, pairs, &s.probe, func(j int) {
		c, e := pair(j)
		compiled[e].SubsumesR(nil, c)
	})

	var keys []*logic.Clause
	for k := 0; k < min(reduceSeeds, len(p.Pos)); k++ {
		var b *logic.Clause
		rec.call("castor.BottomClause", root, func() { b = castor.BottomClause(p, plan, p.Pos[k], params) })
		keys = append(keys, b)
		if len(b.Body) <= reduceCutoff {
			rec.timeEach("subsume.ReduceR", root, 1, &s.reduce, func(int) { subsume.ReduceR(nil, b) })
		}
	}

	var batches [][]coverage.Candidate
	for _, c := range clauses {
		keys = append(keys, c)
		var batch []coverage.Candidate
		for k := range c.Body {
			g := c.RemoveBodyAt(k)
			batch = append(batch, coverage.Candidate{Clause: g})
			keys = append(keys, g)
		}
		batches = append(batches, batch)
	}
	rec.timeEach("logic.CanonicalKey", root, canonicalReps*len(keys), &s.canon, func(j int) { logic.CanonicalKey(keys[j%len(keys)]) })

	// Fresh testers: compiled saturations, cold memo. The serial one runs
	// first because NewTester sets the instance's scan width.
	serial := warmTester(p, params, 1, examples, ground)
	for _, c := range clauses {
		rec.timeEach("ilp.Tester.CoveredSet.serial", root, 1, &s.coveredSerial, func(int) { serial.CoveredSet(c, examples, nil) })
	}
	pooled := warmTester(p, params, parallelism, examples, ground)
	for _, c := range clauses {
		rec.timeEach("ilp.Tester.CoveredSet", root, 1, &s.coveredPar, func(int) { pooled.CoveredSet(c, examples, nil) })
	}
	for ci, c := range clauses {
		batch := batches[ci]
		knownPos, knownNeg := pooled.CoveredSet(c, p.Pos, nil), pooled.CoveredSet(c, p.Neg, nil)
		for k := range batch {
			batch[k].KnownPos, batch[k].KnownNeg = knownPos, knownNeg
		}
		rec.timeEach("ilp.Tester.ScoreBatch", root, 1, &s.scoreBatch, func(int) {
			pooled.ScoreBatch(batch, p.Pos, p.Neg, coverage.NoBound, params.BeamWidth)
		})
	}

	rec.timeEach("ilp.BottomClause", root, len(p.Pos), &s.ilpBottom, func(j int) {
		ilp.BottomClause(p, p.Pos[j], params.Depth, params.MaxRecall)
	})
	s.evaluate += rec.call("eval.Evaluate", root, func() { eval.Evaluate(p.Instance, def, p.Pos, p.Neg) })
}

// learnProgolSample is the Aleph-Progol learn progol.learn_s times: with
// uwcse-aleph's settings, on the first progolPos positives and twice as
// many negatives of p. checker.sample checks what it learns.
func learnProgolSample(p *ilp.Problem, hardStop time.Time) learnResult {
	sub := *p
	sub.Pos = p.Pos[:min(progolPos, len(p.Pos))]
	sub.Neg = p.Neg[:min(2*progolPos, len(p.Neg))]
	params := uwcseParams()
	params.Parallelism = parallelism
	return learn(progol.NewAlephProgol(), &sub, params, hardStop)
}

// warmTester builds a tester at the given parallelism whose saturations
// are compiled from the prebuilt ground bottom clauses and whose memo
// cache is still cold: Covers fills the former and bypasses the latter.
func warmTester(p *ilp.Problem, params ilp.Params, par int, examples []logic.Atom, ground []*logic.Clause) *ilp.Tester {
	params.Parallelism = par
	params.Obs = nil
	t := ilp.NewTester(p, params)
	if params.CoverageMode != ilp.CoverageSubsumption {
		return t
	}
	byKey := make(map[string]*logic.Clause, len(examples))
	for j, e := range examples {
		byKey[e.Key()] = ground[j]
	}
	t.SatFn = func(e logic.Atom) *logic.Clause { return byKey[e.Key()] }
	fact := logic.NewClause(examples[0]) // any clause compiles the saturation
	for _, e := range examples {
		t.Covers(fact, e)
	}
	return t
}

// layerMetric is one per-layer metric of a traced run.
type layerMetric struct {
	name, unit string
	value      float64
}

// values turns the sums into the per-layer metrics, in the order
// BENCHMARK.json lists them.
func (s *layerSums) values(gen, freeze time.Duration) []layerMetric {
	cnt := func(c obs.Counter) float64 { return float64(s.counts[c]) }
	return []layerMetric{
		{"datasets.generate_s", "s", gen.Seconds()},
		{"relstore.freeze_ms", "ms", ms(freeze)},
		{"relstore.covers_us", "us", s.covers.meanUS()},
		{"relstore.covers_b", "B", s.covers.perCallB()},
		{"relstore.tuples_scanned", "count", cnt(obs.CTuplesScanned)},
		{"castor.bottom_us", "us", s.bottom.meanUS()},
		{"castor.bottom_kb", "KB", s.bottom.perCallB() / 1024},
		{"castor.bottom_lits", "count", ratio(float64(s.bottomLits), float64(s.bottom.n))},
		{"castor.saturations", "count", cnt(obs.CSaturationMisses)},
		{"castor.bottom_clauses", "count", cnt(obs.CBottomClauses)},
		{"subsume.compile_us", "us", s.compile.meanUS()},
		{"subsume.probe_us", "us", s.probe.meanUS()},
		{"subsume.probe_b", "B", s.probe.perCallB()},
		{"subsume.nodes", "count", cnt(obs.CSubsumptionNodes)},
		{"subsume.budget_exhausted", "count", cnt(obs.CSubsumptionBudgetExhausted)},
		{"subsume.reduce_ms", "ms", s.reduce.meanMS()},
		{"logic.canonical_us", "us", s.canon.meanUS()},
		{"coverage.tests", "count", cnt(obs.CCoverageTests)},
		{"coverage.skip_frac", "ratio", ratio(cnt(obs.CCoverageSkipped), cnt(obs.CCoverageTests)+cnt(obs.CCoverageSkipped))},
		{"coverage.memo_hit_frac", "ratio", ratio(cnt(obs.CCoverageCacheHits), cnt(obs.CCoverageCacheHits)+cnt(obs.CCoverageCacheMisses))},
		{"coverage.pruned_frac", "ratio", ratio(cnt(obs.CCandidatesPruned), cnt(obs.CCandidatesScored))},
		{"coverage.prune_wasted_frac", "ratio", ratio(cnt(obs.CPruneWastedPairs), cnt(obs.CPruneSkippedPairs)+cnt(obs.CPruneWastedPairs))},
		{"coverage.covered_set_ms", "ms", s.coveredPar.meanMS()},
		{"coverage.pool_speedup", "ratio", ratio(float64(s.coveredSerial.total), float64(s.coveredPar.total))},
		{"coverage.pool_busy_ratio", "ratio", mean(s.busyRatio)},
		{"coverage.score_batch_ms", "ms", s.scoreBatch.meanMS()},
		{"ilp.bottom_us", "us", s.ilpBottom.meanUS()},
		{"ilp.clauses", "count", cnt(obs.CClausesAccepted)},
		{"progol.learn_s", "s", s.progol.Seconds()},
		{"eval.evaluate_ms", "ms", ms(s.evaluate)},
		{"obs.overhead_frac", "ratio", ratio(s.learnTraced, s.learnPlain) - 1},
	}
}

// writeEstimates prints, per layer, the program's count times the
// benchmark's per-call cost: a rough estimate of the layer's serial work
// in the traced learns. Its share of their wall time can exceed 100 % when
// the coverage pool runs its workers in parallel.
func (s *layerSums) writeEstimates(out io.Writer, w workload, params ilp.Params) {
	cnt := func(c obs.Counter) float64 { return float64(s.counts[c]) }
	subsumption := params.CoverageMode == ilp.CoverageSubsumption
	type row struct {
		name, basis string
		us          float64
	}
	var rows []row
	if subsumption {
		rows = append(rows, row{"subsume.Compiled.SubsumesR", "coverage_tests x probe_us", cnt(obs.CCoverageTests) * s.probe.meanUS()},
			row{"subsume.Compile", "saturations x compile_us", cnt(obs.CSaturationMisses) * s.compile.meanUS()})
	} else {
		rows = append(rows, row{"relstore.Instance.CoversExample", "coverage_tests x covers_us", cnt(obs.CCoverageTests) * s.covers.meanUS()})
	}
	if w.module == "castor" {
		rows = append(rows,
			row{"castor.GroundBottomClause", "(saturations + bottom_clauses) x bottom_us", (cnt(obs.CSaturationMisses) + cnt(obs.CBottomClauses)) * s.bottom.meanUS()},
			row{"subsume.ReduceR", "bottom_clauses x reduce_ms", cnt(obs.CBottomClauses) * s.reduce.meanMS() * 1000})
	} else {
		rows = append(rows, row{"ilp.BottomClause", "(clauses accepted + rejected) x ilp_bottom_us", (cnt(obs.CClausesAccepted) + cnt(obs.CClausesRejected)) * s.ilpBottom.meanUS()})
	}
	rows = append(rows, row{"logic.CanonicalKey", "memo lookups x canonical_us", (cnt(obs.CCoverageCacheHits) + cnt(obs.CCoverageCacheMisses)) * s.canon.meanUS()})
	total := s.learnTraced * 1e6
	fmt.Fprintf(out, "estimated serial layer time in one traced pass (%.3f s of wall time)\n", s.learnTraced)
	fmt.Fprintf(out, "%-34s %-46s %12s %7s\n", "layer", "basis", "est_ms", "share_%")
	for _, r := range rows {
		fmt.Fprintf(out, "%-34s %-46s %12.3f %7.2f\n", r.name, r.basis, r.us/1000, 100*ratio(r.us, total))
	}
}
