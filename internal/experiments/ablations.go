package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/castor"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
)

// Ablations of Castor's design choices (DESIGN.md): each runner times a
// full Castor learning run, the fastest of three, with one mechanism
// toggled and reports the pair. These go beyond the paper's own tables
// (which only ablate stored procedures and parallelism) and quantify the
// §7.5 engineering.

// AblationRow is one on/off timing comparison.
type AblationRow struct {
	Ablation    string
	Dataset     string
	OnSeconds   float64
	OffSeconds  float64
	SameResults bool
}

// ablationProblem builds the UW-CSE problem the ablations run on.
func ablationProblem(cfg Config, indexed bool) (*ilp.Problem, error) {
	ds, err := uwcseDataset(cfg)
	if err != nil {
		return nil, err
	}
	prob, err := ds.Problem("Original")
	if err != nil {
		return nil, err
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
	return prob, nil
}

// hivAblationProblem builds the HIV problem used by the coverage-mode
// ablation (where the database is large enough for the engines to differ).
func hivAblationProblem(cfg Config) (*ilp.Problem, error) {
	ds, err := hiv2k4kDataset(cfg)
	if err != nil {
		return nil, err
	}
	return ds.Problem("Initial")
}

func timedCastor(prob *ilp.Problem, params ilp.Params) (float64, string, error) {
	sec, def, err := fastestLearn(prob, params)
	if err != nil {
		return 0, "", err
	}
	return sec, def.String(), nil
}

// fastestLearn learns the problem with Castor three times and returns the
// fastest wall time with the learned definition, which every learn
// repeats.
func fastestLearn(prob *ilp.Problem, params ilp.Params) (float64, *logic.Definition, error) {
	sec := math.Inf(1)
	var def *logic.Definition
	for range 3 {
		start := time.Now()
		d, err := castor.New().Learn(prob, params)
		if err != nil {
			return 0, nil, err
		}
		sec, def = min(sec, time.Since(start).Seconds()), d
	}
	return sec, def, nil
}

// Ablations runs all four design-choice ablations and prints one row each.
func Ablations(cfg Config) ([]AblationRow, error) {
	w := cfg.out()
	fmt.Fprintln(w, "== Ablations: Castor design choices ==")
	fmt.Fprintf(w, "%-22s %-10s %8s %8s %6s\n", "Ablation", "Dataset", "on (s)", "off (s)", "same")
	var rows []AblationRow
	emit := func(row AblationRow) {
		rows = append(rows, row)
		fmt.Fprintf(w, "%-22s %-10s %8.3f %8.3f %6v\n", row.Ablation, row.Dataset, row.OnSeconds, row.OffSeconds, row.SameResults)
	}

	base := func() ilp.Params {
		p := ilp.Defaults()
		p.Sample = 4
		p.BeamWidth = 2
		p.Parallelism = cfg.Parallelism
		p.Obs = cfg.Obs
		return p
	}

	// Coverage mode: subsumption engine vs direct database evaluation, on
	// the HIV database where bottom clauses get long.
	{
		prob, err := hivAblationProblem(cfg)
		if err != nil {
			return nil, err
		}
		pOn := base()
		pOn.CoverageMode = ilp.CoverageSubsumption
		onSec, onDef, err := timedCastor(prob, pOn)
		if err != nil {
			return nil, err
		}
		pOff := base()
		pOff.CoverageMode = ilp.CoverageDB
		offSec, offDef, err := timedCastor(prob, pOff)
		if err != nil {
			return nil, err
		}
		emit(AblationRow{Ablation: "subsumption-coverage", Dataset: "HIV-2K4K", OnSeconds: onSec, OffSeconds: offSec, SameResults: onDef == offDef})
	}
	// Coverage cache, minimization, indexes — on UW-CSE.
	toggles := []struct {
		name  string
		apply func(on bool, p *ilp.Params)
		index func(on bool) bool // instance indexing per arm
	}{
		{"coverage-cache", func(on bool, p *ilp.Params) { p.DisableCoverageCache = !on }, nil},
		{"minimization", func(on bool, p *ilp.Params) { p.Minimize = on }, nil},
		{"hash-indexes", func(on bool, p *ilp.Params) {}, func(on bool) bool { return on }},
	}
	for _, tg := range toggles {
		run := func(on bool) (float64, string, error) {
			indexed := true
			if tg.index != nil {
				indexed = tg.index(on)
			}
			prob, err := ablationProblem(cfg, indexed)
			if err != nil {
				return 0, "", err
			}
			p := base()
			tg.apply(on, &p)
			return timedCastor(prob, p)
		}
		onSec, onDef, err := run(true)
		if err != nil {
			return nil, err
		}
		offSec, offDef, err := run(false)
		if err != nil {
			return nil, err
		}
		emit(AblationRow{Ablation: tg.name, Dataset: "UW-CSE", OnSeconds: onSec, OffSeconds: offSec, SameResults: onDef == offDef})
	}
	fmt.Fprintln(w)
	return rows, nil
}
