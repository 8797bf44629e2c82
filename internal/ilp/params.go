package ilp

import (
	"runtime"

	"repro/internal/obs"
)

// Params is the parameter tuple θ of §3.1, shared by all learners. Each
// learner reads the fields that apply to it and ignores the rest.
type Params struct {
	// Obs is the instrumentation run (spans + counters) the learner
	// reports into. Nil — the default — observes nothing and costs
	// a pointer test; instrumentation must never change what is learned.
	Obs *obs.Run
	// ClauseLength bounds the number of literals per clause (head included)
	// in top-down learners (FOIL, Progol). Theorem 5.1 is about this bound.
	ClauseLength int
	// Depth bounds bottom-clause construction iterations in classic
	// bottom-up learners (Golem, ProGolem). Lemma 6.3 is about this bound.
	Depth int
	// MaxVars bounds the number of distinct variables in Castor's bottom
	// clause — the (de)composition-invariant stopping condition of §7.1.
	MaxVars int
	// MaxRecall caps how many tuples of one relation may be added to a
	// bottom clause in one iteration (the paper uses 10 on IMDb).
	MaxRecall int
	// Sample is K: how many positive examples each generalization round
	// draws (Algorithms 2 and 4).
	Sample int
	// BeamWidth is N: how many candidates the beam search keeps.
	BeamWidth int
	// MinPrec is the minimum precision a clause must reach to be accepted
	// (minacc/minprec in Aleph/ProGolem; the experiments use 0.67).
	MinPrec float64
	// MinPos is the minimum number of positive examples a clause must
	// cover (minpos; the experiments use 2).
	MinPos int
	// MaxClauses caps the number of clauses in a learned definition, as a
	// covering-loop safety net. 0 means unlimited.
	MaxClauses int
	// Parallelism is the number of goroutines used for coverage testing
	// (§7.5.3) and for Castor's and ProGolem's ARMG generation, the
	// learner's own goroutine included. 0 or 1 means sequential; Defaults
	// uses runtime.NumCPU(). A round has at most one shard per item, so a
	// round of one item runs on the learner's goroutine alone.
	Parallelism int
	// Seed drives all randomized choices (example sampling); learners are
	// deterministic given the seed.
	Seed int64
	// UseStoredProc reuses the precompiled per-schema plan across bottom
	// clauses (§7.5.2). When false the plan is recompiled on every call,
	// the paper's "without stored procedures" configuration.
	UseStoredProc bool
	// SubsetINDs makes Castor chase subset INDs directly (§7.4 extension,
	// Table 12) instead of only INDs with equality.
	SubsetINDs bool
	// PromoteINDs enables Castor's §7.4 preprocessing: subset INDs that
	// hold as equalities on the training instance are treated as INDs with
	// equality.
	PromoteINDs bool
	// CoverageMode selects how clause coverage is decided.
	CoverageMode CoverageMode
	// Minimize enables bottom-clause and learned-clause reduction
	// (§7.5.5). Castor defaults to on; the ablation bench turns it off.
	Minimize bool
	// DisableCoverageCache turns off the §7.5.4 shortcut (generalizations
	// inherit their parent's covered examples); only the ablation bench
	// sets it.
	DisableCoverageCache bool
}

// CoverageMode selects the coverage-test implementation.
type CoverageMode int

const (
	// CoverageDB evaluates the clause directly against the indexed store.
	CoverageDB CoverageMode = iota
	// CoverageSubsumption tests θ-subsumption against the example's ground
	// bottom clause, the paper's §7.5.3 engine.
	CoverageSubsumption
)

// Defaults returns the parameter settings used throughout §9.1.2 of the
// paper: minprec=0.67, minpos=2, sample=1, beam=1, depth=3, maxRecall=10.
// Coverage-test parallelism defaults to the machine's core count.
func Defaults() Params {
	return Params{
		ClauseLength:  10,
		Depth:         3,
		MaxVars:       20,
		MaxRecall:     10,
		Sample:        1,
		BeamWidth:     1,
		MinPrec:       0.67,
		MinPos:        2,
		MaxClauses:    20,
		Parallelism:   runtime.NumCPU(),
		Seed:          1,
		UseStoredProc: true,
		CoverageMode:  CoverageDB,
		Minimize:      true,
	}
}
