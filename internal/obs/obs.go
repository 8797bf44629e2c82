// Package obs is the instrumentation layer of the repository: atomic
// counters and nested spans for the learning pipeline (bottom-clause
// construction, beam search, coverage testing, negative reduction,
// minimization), plus the exporters that make them operable — a JSONL
// span trace, a text span log, a Chrome-trace (Perfetto) exporter, a
// flight recorder with a stall watchdog, and a machine-diffable run
// report.
//
// The paper's performance claims (§7.5) — parallel coverage testing
// (§7.5.3), the coverage cache (§7.5.4), stored-procedure plans (§7.5.2),
// θ-subsumption minimization (§7.5.5) — are reproduced by the learner
// packages; obs makes them visible: every counter below maps to one of
// those optimizations, so a metrics report shows whether they fire.
//
// The span is the one primitive for timing a learn and for narrating it:
// each learner phase is one StartSpan/End pair, results known at the end
// of a phase are span fields (Annotate), and the registry's per-kind span
// aggregates and duration histograms are the phase timings reports and
// gates read.
//
// The central type is *Run: an optional *Registry (counters and span
// aggregates), an optional SpanSink (the exporters and the flight
// recorder) and an optional provenance recorder. A nil *Run is the nop
// default: every method is nil-safe and returns immediately, so
// uninstrumented runs pay only a pointer test on the hot paths. Learners
// receive the run through ilp.Params.Obs.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter identifies one atomic counter of the registry. The fixed
// enumeration keeps increments allocation-free and branch-predictable.
type Counter int

const (
	// CCoverageTests counts coverage tests actually executed (§7.5.3),
	// over both engines (direct evaluation and θ-subsumption).
	CCoverageTests Counter = iota
	// CCoverageSkipped counts coverage tests skipped because the example
	// was already known covered — the §7.5.4 coverage-cache hits.
	CCoverageSkipped
	// CCoverageCacheHits counts whole-clause memo-cache hits: CoveredSet
	// calls answered from the canonical-clause-keyed cache without any
	// per-example testing (§7.5.4).
	CCoverageCacheHits
	// CCoverageCacheMisses counts memo-cache lookups that had to evaluate.
	CCoverageCacheMisses
	// CCandidatesScored counts candidates evaluated by batched scoring.
	CCandidatesScored
	// CCandidatesPruned counts candidates abandoned early because their
	// negative cover already disqualified them against the current best.
	CCandidatesPruned
	// CSaturationHits counts ground-bottom-clause cache hits in
	// subsumption-mode coverage testing.
	CSaturationHits
	// CSaturationMisses counts ground bottom clauses built on demand for
	// subsumption-mode coverage testing.
	CSaturationMisses
	// CSubsumptionCalls counts top-level θ-subsumption engine calls.
	CSubsumptionCalls
	// CSubsumptionNodes counts backtracking nodes explored by the
	// θ-subsumption engine.
	CSubsumptionNodes
	// CSubsumptionBudgetExhausted counts θ-subsumption calls cut off by the
	// node budget. The engine reports those as "does not subsume"; a
	// nonzero value here means some answers were cutoffs, not genuine
	// failures.
	CSubsumptionBudgetExhausted
	// CEvalBudgetExhausted counts direct-evaluation calls (relstore query
	// matching) cut off by the node budget. Like subsumption cutoffs,
	// those answer "not covered"; a nonzero value means some direct
	// coverage answers were cutoffs.
	CEvalBudgetExhausted
	// CINDChaseHops counts IND hops followed during Castor's bottom-clause
	// construction (§7.1).
	CINDChaseHops
	// CTuplesScanned counts tuples read from the relational store, during
	// query evaluation and bottom-clause construction.
	CTuplesScanned
	// CPlanCompiles counts per-schema access-plan compilations; with
	// stored procedures on (§7.5.2) this stays at 1 per Learn call.
	CPlanCompiles
	// CReductionSteps counts literal-removal attempts during θ-subsumption
	// minimization (§7.5.5).
	CReductionSteps
	// CReductionRemoved counts literals actually removed by minimization.
	CReductionRemoved
	// CBottomClauses counts bottom clauses constructed.
	CBottomClauses
	// CBottomLiterals accumulates the body sizes of constructed bottom
	// clauses.
	CBottomLiterals
	// CARMGCalls counts ARMG generalization calls.
	CARMGCalls
	// CCandidateLiterals counts candidate literals scored by top-down
	// learners (FOIL's branching factor).
	CCandidateLiterals
	// CClausesAccepted counts clauses accepted by the covering loop.
	CClausesAccepted
	// CClausesRejected counts clauses the covering loop rejected for
	// failing the minimum condition.
	CClausesRejected
	// CWatchdogStalls counts stall-watchdog trips: intervals in which the
	// run's heartbeat counter made no forward progress for the configured
	// stall duration.
	CWatchdogStalls
	// CPoolRounds counts rounds the coverage engine posted to its helpers
	// (one runShards drain over a planned shard list: a scan, a scoring
	// round or an ARMG fan-out).
	CPoolRounds
	// CPoolShards counts shards drained by pool workers across all rounds.
	CPoolShards
	// CPoolTasks counts work items (candidate-example pairs or per-example
	// tests) executed inside pool shards; tasks/rounds is the mean round
	// width.
	CPoolTasks
	// CPruneSkippedPairs counts candidate-example pairs the shared pruning
	// bound saved outright: negatives never scanned because the candidate
	// was abandoned before or during its scan. This is the work the bound
	// actually avoided.
	CPruneSkippedPairs
	// CPruneWastedPairs counts candidate-example pairs that were scanned
	// for a candidate that ended up pruned anyway — scored-then-discarded
	// wasted work the bound arrived too late to save.
	CPruneWastedPairs

	numCounters
)

// counterNames are the stable report keys, in Counter order.
var counterNames = [numCounters]string{
	CCoverageTests:              "coverage_tests",
	CCoverageSkipped:            "coverage_tests_skipped",
	CCoverageCacheHits:          "coverage_cache_hits",
	CCoverageCacheMisses:        "coverage_cache_misses",
	CCandidatesScored:           "candidates_scored",
	CCandidatesPruned:           "candidates_pruned",
	CSaturationHits:             "saturation_cache_hits",
	CSaturationMisses:           "saturation_cache_misses",
	CSubsumptionCalls:           "subsumption_calls",
	CSubsumptionNodes:           "subsumption_nodes",
	CSubsumptionBudgetExhausted: "subsumption_budget_exhausted",
	CEvalBudgetExhausted:        "eval_budget_exhausted",
	CINDChaseHops:               "ind_chase_hops",
	CTuplesScanned:              "tuples_scanned",
	CPlanCompiles:               "plan_compiles",
	CReductionSteps:             "reduction_steps",
	CReductionRemoved:           "reduction_removed",
	CBottomClauses:              "bottom_clauses",
	CBottomLiterals:             "bottom_literals",
	CARMGCalls:                  "armg_calls",
	CCandidateLiterals:          "candidate_literals",
	CClausesAccepted:            "clauses_accepted",
	CClausesRejected:            "clauses_rejected",
	CWatchdogStalls:             "watchdog_stalls",
	CPoolRounds:                 "pool_rounds",
	CPoolShards:                 "pool_shards_drained",
	CPoolTasks:                  "pool_tasks",
	CPruneSkippedPairs:          "prune_skipped_pairs",
	CPruneWastedPairs:           "prune_wasted_pairs",
}

// String returns the report key of the counter.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Field is one key/value pair of a span. Spans carry ordered fields (not
// a map) so sinks emit them deterministically.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Run bundles the registry, span sink and provenance recorder one
// learning run reports into. The zero value and nil are valid and mean
// "observe nothing".
type Run struct {
	reg   *Registry
	spans SpanSink
	prov  *Prov

	// beat is the stall-watchdog heartbeat: span begins/ends and the
	// learner hot paths bump it, StartWatchdog watches it (see watchdog.go).
	beat atomic.Int64

	// spanMu guards cur, the innermost open span (see span.go).
	spanMu sync.Mutex
	cur    *Span
}

// NewRun pairs a span sink with a registry; either may be nil. Combine
// several sinks with MultiSpanSink.
func NewRun(spans SpanSink, reg *Registry) *Run {
	if spans == nil && reg == nil {
		return nil // collapse to the nop run: hot paths test one pointer
	}
	return &Run{spans: spans, reg: reg}
}

// Registry returns the run's registry, or nil.
func (r *Run) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Inc adds 1 to the counter.
func (r *Run) Inc(c Counter) {
	if r == nil || r.reg == nil {
		return
	}
	r.reg.counters[c].Add(1)
}

// Add adds delta to the counter.
func (r *Run) Add(c Counter, delta int64) {
	if r == nil || r.reg == nil {
		return
	}
	r.reg.counters[c].Add(delta)
}

// Heartbeat signals forward progress to the stall watchdog. Hot paths
// (per-example coverage tests, subsumption node batches, covering
// iterations) call it unconditionally: on a nil run it is one pointer
// test, otherwise one atomic add.
func (r *Run) Heartbeat() {
	if r == nil {
		return
	}
	r.beat.Add(1)
}
