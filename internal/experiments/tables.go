package experiments

import (
	"fmt"

	"repro/internal/castor"
	"repro/internal/datasets"
	"repro/internal/foil"
	"repro/internal/ilp"
	"repro/internal/progol"
	"repro/internal/progolem"
	"repro/internal/relstore"
)

// datasetsFor builds the three benchmarks at the configured scale.
func uwcseDataset(cfg Config) (*datasets.Dataset, error) {
	c := datasets.DefaultUWCSE()
	c.Students = cfg.scaled(c.Students)
	c.Professors = cfg.scaled(c.Professors)
	c.Courses = cfg.scaled(c.Courses)
	c.Seed = cfg.Seed + 100
	return datasets.GenerateUWCSE(c)
}

func hiv2k4kDataset(cfg Config) (*datasets.Dataset, error) {
	c := datasets.DefaultHIV2K4K()
	c.Compounds = cfg.scaled(c.Compounds)
	c.Seed = cfg.Seed + 200
	return datasets.GenerateHIV(c)
}

func hivLargeDataset(cfg Config) (*datasets.Dataset, error) {
	c := datasets.DefaultHIVLarge()
	c.Compounds = cfg.scaled(c.Compounds)
	c.Seed = cfg.Seed + 300
	return datasets.GenerateHIV(c)
}

func imdbDataset(cfg Config) (*datasets.Dataset, error) {
	c := datasets.DefaultIMDb()
	c.Movies = cfg.scaled(c.Movies)
	c.Directors = cfg.scaled(c.Directors)
	c.Actors = cfg.scaled(c.Actors)
	c.Seed = cfg.Seed + 400
	return datasets.GenerateIMDb(c)
}

// castorParams are the §9.1.2 settings for the HIV/IMDb datasets
// (sample=1, beam=1); uwcseParams uses the larger search (paper:
// sample=20, beam=3; scaled down to keep the suite fast).
func castorParams() ilp.Params {
	p := ilp.Defaults()
	p.Sample = 1
	p.BeamWidth = 1
	// Coverage via the subsumption engine (§7.5.3): direct join-based
	// evaluation of the long clauses bottom-up learners build over the
	// HIV/IMDb databases is prohibitively expensive, exactly as the paper
	// reports.
	p.CoverageMode = ilp.CoverageSubsumption
	return p
}

func uwcseParams() ilp.Params {
	p := ilp.Defaults()
	p.Sample = 8
	p.BeamWidth = 3
	return p
}

// Table2 prints dataset statistics (relations, tuples, examples) for every
// variant of every dataset.
func Table2(cfg Config) ([]datasets.Stats, error) {
	var all []datasets.Stats
	build := []func(Config) (*datasets.Dataset, error){hivLargeDataset, hiv2k4kDataset, uwcseDataset, imdbDataset}
	names := []string{"HIV-Large", "HIV-2K4K", "UW-CSE", "IMDb"}
	w := cfg.out()
	fmt.Fprintln(w, "== Table 2: dataset statistics ==")
	fmt.Fprintf(w, "%-10s %-16s %4s %9s %6s %6s\n", "Dataset", "Schema", "#R", "#T", "#P", "#N")
	for i, b := range build {
		ds, err := b(cfg)
		if err != nil {
			return nil, err
		}
		for _, s := range ds.TableStats() {
			s.Dataset = names[i]
			all = append(all, s)
			fmt.Fprintf(w, "%-10s %-16s %4d %9d %6d %6d\n", s.Dataset, s.Variant, s.Relations, s.Tuples, s.Pos, s.Neg)
		}
	}
	fmt.Fprintln(w)
	return all, nil
}

// hivLearners are Table 9's systems: Aleph-FOIL and Aleph-Progol at
// clauselength 10 and 15, plus Castor.
func hivLearners() []struct {
	learner ilp.Learner
	params  ilp.Params
} {
	short := castorParams()
	short.ClauseLength = 10
	long := castorParams()
	long.ClauseLength = 15
	return []struct {
		learner ilp.Learner
		params  ilp.Params
	}{
		{progol.New("Aleph-FOIL (cl=10)", 1, 600), short},
		{progol.New("Aleph-FOIL (cl=15)", 1, 600), long},
		{progol.New("Aleph-Progol (cl=10)", 64, 600), short},
		{progol.New("Aleph-Progol (cl=15)", 64, 600), long},
		{castor.New(), castorParams()},
	}
}

// Table9 runs the HIV experiments over Initial/4NF-1/4NF-2 for both the
// HIV-Large and HIV-2K4K configurations.
func Table9(cfg Config) ([]Row, error) {
	var rows []Row
	for _, part := range []struct {
		name  string
		build func(Config) (*datasets.Dataset, error)
	}{
		{"HIV-Large", hivLargeDataset},
		{"HIV-2K4K", hiv2k4kDataset},
	} {
		ds, err := part.build(cfg)
		if err != nil {
			return nil, err
		}
		ds.Name = part.name
		var block []Row
		for _, l := range hivLearners() {
			for _, v := range ds.Variants {
				block = append(block, runCV(cfg, ds, v.Name, l.learner, l.params, cfg.folds(3)))
			}
		}
		RenderRows(cfg.out(), "Table 9: "+part.name, block)
		rows = append(rows, block...)
	}
	return rows, nil
}

// Table10 runs the UW-CSE experiments: FOIL, Aleph-FOIL, Aleph-Progol,
// ProGolem and Castor over the four schemas, 5-fold CV.
func Table10(cfg Config) ([]Row, error) {
	ds, err := uwcseDataset(cfg)
	if err != nil {
		return nil, err
	}
	learners := []struct {
		learner ilp.Learner
		params  ilp.Params
	}{
		{foil.New(), uwcseParams()},
		{progol.NewAlephFOIL(), uwcseParams()},
		{progol.NewAlephProgol(), uwcseParams()},
		{progolem.New(), uwcseParams()},
		{castor.New(), uwcseParams()},
	}
	var rows []Row
	for _, l := range learners {
		for _, v := range ds.Variants {
			rows = append(rows, runCV(cfg, ds, v.Name, l.learner, l.params, cfg.folds(5)))
		}
	}
	RenderRows(cfg.out(), "Table 10: UW-CSE", rows)
	return rows, nil
}

// Table11 runs the IMDb experiments: Aleph-FOIL, Aleph-Progol and Castor
// over JMDB/Stanford/Denormalized.
func Table11(cfg Config) ([]Row, error) {
	ds, err := imdbDataset(cfg)
	if err != nil {
		return nil, err
	}
	learners := []struct {
		learner ilp.Learner
		params  ilp.Params
	}{
		{progol.NewAlephFOIL(), castorParams()},
		{progol.NewAlephProgol(), castorParams()},
		{castor.New(), castorParams()},
	}
	var rows []Row
	for _, l := range learners {
		for _, v := range ds.Variants {
			rows = append(rows, runCV(cfg, ds, v.Name, l.learner, l.params, cfg.folds(3)))
		}
	}
	RenderRows(cfg.out(), "Table 11: IMDb", rows)
	return rows, nil
}

// demoteINDs rebuilds every variant with equality INDs demoted to subset
// INDs — §9.2's "general decomposition/composition" setting for Table 12.
func demoteINDs(ds *datasets.Dataset) *datasets.Dataset {
	out := *ds
	out.Variants = nil
	for _, v := range ds.Variants {
		s := relstore.NewSchema()
		for _, r := range v.Schema.Relations() {
			s.MustAddRelation(r.Name, r.Attrs...)
			for _, a := range r.Attrs {
				if d := v.Schema.Domain(a); d != a {
					s.SetDomain(a, d)
				}
			}
		}
		for _, ind := range v.Schema.INDs() {
			s.MustAddIND(ind.Left.Rel, ind.Left.Attrs, ind.Right.Rel, ind.Right.Attrs, false)
		}
		inst := relstore.NewInstance(s)
		for _, r := range v.Schema.Relations() {
			for _, tp := range v.Instance.Table(r.Name).Tuples() {
				inst.MustInsert(r.Name, tp...)
			}
		}
		out.Variants = append(out.Variants, &datasets.Variant{Name: v.Name, Schema: s, Instance: inst})
	}
	return &out
}

// Table12 runs Castor's subset-IND extension over all three datasets with
// every IND demoted to subset form.
func Table12(cfg Config) ([]Row, error) {
	params := castorParams()
	params.SubsetINDs = true
	uwParams := uwcseParams()
	uwParams.SubsetINDs = true
	var rows []Row
	for _, part := range []struct {
		name   string
		build  func(Config) (*datasets.Dataset, error)
		params ilp.Params
		folds  int
	}{
		{"HIV-2K4K", hiv2k4kDataset, params, cfg.folds(3)},
		{"UW-CSE", uwcseDataset, uwParams, cfg.folds(5)},
		{"IMDb", imdbDataset, params, cfg.folds(3)},
	} {
		ds, err := part.build(cfg)
		if err != nil {
			return nil, err
		}
		ds.Name = part.name
		demoted := demoteINDs(ds)
		var block []Row
		for _, v := range demoted.Variants {
			block = append(block, runCV(cfg, demoted, v.Name, castor.New(), part.params, part.folds))
		}
		RenderRows(cfg.out(), "Table 12: Castor with subset INDs only — "+part.name, block)
		rows = append(rows, block...)
	}
	return rows, nil
}

// Table13Row is one stored-procedure timing comparison.
type Table13Row struct {
	Dataset          string
	WithSeconds      float64
	WithoutSeconds   float64
	SpeedupWithProcs float64
}

// Table13 measures Castor with and without precompiled plans (§7.5.2),
// each cell the fastest of three learns.
func Table13(cfg Config) ([]Table13Row, error) {
	var rows []Table13Row
	w := cfg.out()
	fmt.Fprintln(w, "== Table 13: impact of stored procedures on Castor ==")
	fmt.Fprintf(w, "%-10s %14s %17s %8s\n", "Dataset", "With procs (s)", "Without procs (s)", "Speedup")
	for _, part := range []struct {
		name  string
		build func(Config) (*datasets.Dataset, error)
	}{
		{"HIV-Large", hivLargeDataset},
		{"HIV-2K4K", hiv2k4kDataset},
		{"IMDb", imdbDataset},
	} {
		ds, err := part.build(cfg)
		if err != nil {
			return nil, err
		}
		prob, err := ds.Problem(ds.Variants[0].Name)
		if err != nil {
			return nil, err
		}
		timeRun := func(useProc bool) (float64, error) {
			params := castorParams()
			params.Parallelism = cfg.Parallelism
			params.UseStoredProc = useProc
			params.Obs = cfg.Obs
			sec, _, err := fastestLearn(prob, params)
			return sec, err
		}
		with, err := timeRun(true)
		if err != nil {
			return nil, err
		}
		without, err := timeRun(false)
		if err != nil {
			return nil, err
		}
		row := Table13Row{Dataset: part.name, WithSeconds: with, WithoutSeconds: without}
		if with > 0 {
			row.SpeedupWithProcs = without / with
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %14.3f %17.3f %7.2fx\n", row.Dataset, row.WithSeconds, row.WithoutSeconds, row.SpeedupWithProcs)
	}
	fmt.Fprintln(w)
	return rows, nil
}
