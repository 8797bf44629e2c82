// Command castor learns a target relation over one of the generated
// benchmark databases — or over a user-supplied database — with any of the
// implemented learners, and prints the learned Horn definition and its
// training-set quality.
//
// Usage:
//
//	castor -dataset uwcse -variant Original -learner castor
//	castor -dataset hiv -variant 4NF-2 -learner aleph-progol
//	castor -dataset imdb -variant Stanford
//
//	# user data: a schema file, a Datalog fact file, and example files
//	castor -schema db.schema -data db.facts \
//	       -pos pos.facts -neg neg.facts -target 'advisedBy(stud, prof)'
//
//	# observability: one text line per finished learner span, a JSONL
//	# span trace, the run report, CPU/heap profiles
//	castor -dataset uwcse -v
//	castor -dataset uwcse -trace trace.jsonl -report run.json
//	castor -dataset uwcse -cpuprofile cpu.pprof -memprofile mem.pprof
//
//	# Perfetto-loadable span trace; flight recorder and stall watchdog
//	castor -dataset uwcse -chrometrace trace.json
//	castor -dataset uwcse -flightrecorder flight.jsonl -watchdog-stall 30s
//
//	# search-graph provenance and explanations
//	castor -dataset uwcse -provenance prov.jsonl -explain-plan
//	castor explain -provenance prov.jsonl          # lineage of every learned clause
//	castor explain -provenance prov.jsonl -inds    # which INDs fired, with totals
//	castor explain -provenance prov.jsonl -example 'advisedBy(stud12,prof5)'
//
// File formats are those of internal/relstore: `rel name(attr, …)` /
// `fd` / `ind` / `domain` lines for the schema, one ground fact per line
// for data and examples. The data must satisfy the schema's FDs and INDs:
// a violation fails the load with the violated constraint and a witness
// value. The trace file is JSONL (one object per finished
// span); the run report embeds the JSON snapshot of the run's counter and
// span registry under "metrics" (see README "Observability" for both
// schemas).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/cmd/internal/observe"
	"repro/internal/castor"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/foil"
	"repro/internal/golem"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/progol"
	"repro/internal/progolem"
	"repro/internal/relstore"
)

// options mirrors the command-line flags; run is driven by it so tests
// can exercise the full pipeline without exec'ing the binary.
type options struct {
	dataset, variant                       string
	schemaFile, dataFile, posFile, negFile string
	targetDecl, valueAttrs                 string
	learner                                string
	coverage                               string // auto|direct|subsumption
	sample, beam, clauseLength, par        int
	seed                                   int64
	scale                                  float64
	subsetINDs                             bool

	obsFlags observe.Flags

	provFile     string
	provMaxNodes int64
	explainPlan  bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		if err := runExplain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "castor explain:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.dataset, "dataset", "uwcse", "dataset: uwcse|hiv|imdb")
	flag.StringVar(&o.variant, "variant", "", "schema variant (default: first)")
	flag.StringVar(&o.schemaFile, "schema", "", "schema file (user data mode)")
	flag.StringVar(&o.dataFile, "data", "", "Datalog fact file (user data mode)")
	flag.StringVar(&o.posFile, "pos", "", "positive example fact file (user data mode)")
	flag.StringVar(&o.negFile, "neg", "", "negative example fact file (user data mode)")
	flag.StringVar(&o.targetDecl, "target", "", "target declaration, e.g. 'advisedBy(stud, prof)' (user data mode)")
	flag.StringVar(&o.valueAttrs, "values", "", "comma-separated value attribute domains (user data mode)")
	flag.StringVar(&o.learner, "learner", "castor", "learner: castor|foil|aleph-foil|aleph-progol|progolem|golem")
	flag.StringVar(&o.coverage, "coverage", "auto", "coverage engine: direct|subsumption|auto (auto picks per generated dataset)")
	flag.IntVar(&o.sample, "sample", 4, "positives sampled per generalization round")
	flag.IntVar(&o.beam, "beam", 2, "beam width")
	flag.IntVar(&o.clauseLength, "clauselength", 10, "max clause length for top-down learners")
	flag.IntVar(&o.par, "par", 0, "coverage-test parallelism (0 = all CPU cores)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.Float64Var(&o.scale, "scale", 1, "multiply the generated dataset's entity counts (1 = defaults; see README \"Paper-scale data\")")
	flag.BoolVar(&o.subsetINDs, "subset-inds", false, "Castor: chase general subset INDs (§7.4)")
	o.obsFlags.Register(flag.CommandLine)
	flag.StringVar(&o.provFile, "provenance", "", "write the candidate search graph (JSONL) to this file")
	flag.Int64Var(&o.provMaxNodes, "provenance-max-nodes", 0,
		"cap on recorded provenance nodes (0 = default cap, negative = unlimited); past it pruned candidates are dropped")
	flag.BoolVar(&o.explainPlan, "explain-plan", false, "print the precompiled bottom-clause plan (IND hop table) before learning")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "castor:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) (err error) {
	var prov *obs.Prov
	if o.provFile != "" {
		if prov, err = obs.CreateProvenanceFile(o.provFile, obs.ProvOptions{MaxNodes: o.provMaxNodes}); err != nil {
			return err
		}
	}
	s, err := observe.Start(o.obsFlags, prov)
	if err != nil {
		return err
	}
	defer s.Close(&err)

	userData := o.schemaFile != ""
	prob, pos, neg, datasetLabel, err := loadProblem(&o)
	if err != nil {
		return err
	}

	var learner ilp.Learner
	switch o.learner {
	case "castor":
		learner = castor.New()
	case "foil":
		learner = foil.New()
	case "aleph-foil":
		learner = progol.NewAlephFOIL()
	case "aleph-progol":
		learner = progol.NewAlephProgol()
	case "progolem":
		learner = progolem.New()
	case "golem":
		learner = golem.New()
	default:
		return fmt.Errorf("unknown learner %q", o.learner)
	}

	params := ilp.Defaults()
	params.Sample = o.sample
	params.BeamWidth = o.beam
	params.ClauseLength = o.clauseLength
	params.Parallelism = o.par
	if params.Parallelism <= 0 {
		params.Parallelism = runtime.NumCPU()
	}
	params.Seed = o.seed
	params.SubsetINDs = o.subsetINDs
	params.Obs = s.Run
	mode, err := coverageMode(o.coverage, userData, o.dataset)
	if err != nil {
		return err
	}
	params.CoverageMode = mode

	if o.explainPlan {
		plan := relstore.CompilePlan(prob.Instance.Schema(), o.subsetINDs)
		fmt.Fprintf(out, "bottom-clause plan for variant %s:\n%s\n", o.variant, plan.Explain())
	}
	prov.Meta(map[string]any{
		"tool":    "castor",
		"dataset": datasetLabel,
		"variant": o.variant,
		"learner": learner.Name(),
		"target":  prob.Target.Name,
		"seed":    o.seed,
	})

	fmt.Fprintf(out, "dataset=%s variant=%s learner=%s (%d pos, %d neg, %d tuples)\n",
		datasetLabel, o.variant, learner.Name(), len(pos), len(neg), prob.Instance.NumTuples())
	start := time.Now()
	def, err := learner.Learn(prob, params)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "\nlearned definition (%d clauses, %.2fs):\n", def.Len(), elapsed.Seconds())
	if def.IsEmpty() {
		fmt.Fprintln(out, "  (nothing learned)")
	} else {
		fmt.Fprintln(out, def)
	}
	m := eval.Evaluate(prob.Instance, def, pos, neg)
	fmt.Fprintf(out, "\ntraining-set quality: %s\n", m)

	return s.Finish(out, o.seed, &obs.RunReport{
		Tool:    "castor",
		Dataset: datasetLabel,
		Variant: o.variant,
		Learner: learner.Name(),
		Target:  prob.Target.Name,
		Params: map[string]any{
			"coverage":     o.coverage,
			"sample":       o.sample,
			"beam":         o.beam,
			"clauselength": o.clauseLength,
			"par":          params.Parallelism,
			"seed":         o.seed,
			"subset_inds":  o.subsetINDs,
		},
		ElapsedSeconds: elapsed.Seconds(),
		Definition:     definitionStats(def, m),
	})
}

// definitionStats summarizes the learned definition for the run report.
func definitionStats(def *logic.Definition, m eval.Metrics) *obs.DefinitionStats {
	if def == nil {
		return nil
	}
	lits := 0
	for _, c := range def.Clauses {
		lits += len(c.Body)
	}
	return &obs.DefinitionStats{
		Clauses:   def.Len(),
		Literals:  lits,
		TP:        m.TP,
		FP:        m.FP,
		FN:        m.FN,
		Precision: m.Precision,
		Recall:    m.Recall,
		F1:        m.F1,
	}
}

// loadProblem resolves the learning problem from the flags: a generated
// benchmark dataset, or user-supplied files when -schema is set. It fills
// in o.variant (the default variant, or "user") and returns the dataset
// label runs and reports display.
func loadProblem(o *options) (prob *ilp.Problem, pos, neg []logic.Atom, datasetLabel string, err error) {
	if o.schemaFile != "" {
		p, err := loadUserProblem(o.schemaFile, o.dataFile, o.posFile, o.negFile, o.targetDecl, o.valueAttrs)
		if err != nil {
			return nil, nil, nil, "", err
		}
		o.variant = "user"
		return p, p.Pos, p.Neg, o.dataFile, nil
	}
	ds, err := buildDataset(o.dataset, o.scale, o.variant)
	if err != nil {
		return nil, nil, nil, "", err
	}
	if o.variant == "" {
		o.variant = ds.Variants[0].Name
	}
	p, err := ds.Problem(o.variant)
	if err != nil {
		return nil, nil, nil, "", err
	}
	return p, ds.Pos, ds.Neg, ds.Name, nil
}

// coverageMode resolves the -coverage flag. The dataset heuristic (UW-CSE
// evaluates fastest directly, the larger HIV/IMDb databases via
// θ-subsumption) only ever applies to the generated datasets: user data
// defaults to direct evaluation rather than inheriting whatever the
// unrelated -dataset flag holds.
func coverageMode(flagVal string, userData bool, dataset string) (ilp.CoverageMode, error) {
	switch flagVal {
	case "direct":
		return ilp.CoverageDB, nil
	case "subsumption":
		return ilp.CoverageSubsumption, nil
	case "auto", "":
		if !userData && dataset != "uwcse" {
			return ilp.CoverageSubsumption, nil
		}
		return ilp.CoverageDB, nil
	}
	return 0, fmt.Errorf("unknown -coverage %q (have direct, subsumption, auto)", flagVal)
}

// loadUserProblem assembles an ILP problem from user-supplied files.
func loadUserProblem(schemaFile, dataFile, posFile, negFile, targetDecl, valueAttrs string) (*ilp.Problem, error) {
	if dataFile == "" || posFile == "" || targetDecl == "" {
		return nil, fmt.Errorf("user data mode needs -schema, -data, -pos and -target")
	}
	sf, err := os.Open(schemaFile)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	schema, err := relstore.ReadSchema(sf)
	if err != nil {
		return nil, err
	}
	df, err := os.Open(dataFile)
	if err != nil {
		return nil, err
	}
	defer df.Close()
	inst, err := relstore.ReadInstance(df, schema)
	if err != nil {
		return nil, err
	}
	// Castor chases the declared INDs as if they held: data that violates
	// one would silently change the bottom clauses, so refuse it.
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", dataFile, err)
	}
	head, err := logic.ParseAtom(targetDecl)
	if err != nil {
		return nil, fmt.Errorf("parsing -target: %w", err)
	}
	attrs := make([]string, head.Arity())
	for i, a := range head.Args {
		attrs[i] = a.Name
	}
	target := &relstore.Relation{Name: head.Pred, Attrs: attrs}
	readExamples := func(path string) ([]logic.Atom, error) {
		if path == "" {
			return nil, nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		clauses, err := logic.ParseProgram(string(data))
		if err != nil {
			return nil, err
		}
		out := make([]logic.Atom, len(clauses))
		for i, c := range clauses {
			if len(c.Body) != 0 || !c.Head.IsGround() {
				return nil, fmt.Errorf("%s: examples must be ground facts, got %v", path, c)
			}
			out[i] = c.Head
		}
		return out, nil
	}
	pos, err := readExamples(posFile)
	if err != nil {
		return nil, err
	}
	neg, err := readExamples(negFile)
	if err != nil {
		return nil, err
	}
	values := map[string]bool{}
	for _, v := range strings.Split(valueAttrs, ",") {
		if v = strings.TrimSpace(v); v != "" {
			values[v] = true
		}
	}
	return &ilp.Problem{Instance: inst, Target: target, Pos: pos, Neg: neg, ValueAttrs: values}, nil
}

func buildDataset(name string, scale float64, variant string) (*datasets.Dataset, error) {
	switch name {
	case "uwcse":
		cfg := datasets.DefaultUWCSE()
		cfg.Scale = scale
		return datasets.GenerateUWCSE(cfg)
	case "hiv":
		cfg := datasets.DefaultHIV2K4K()
		cfg.Scale = scale
		if scale > 1 && variant != "" {
			// At scale, deriving the unused variants through the transform
			// pipelines dominates startup; generate only the one learned on.
			cfg.Only = variant
		}
		return datasets.GenerateHIV(cfg)
	case "imdb":
		cfg := datasets.DefaultIMDb()
		cfg.Scale = scale
		return datasets.GenerateIMDb(cfg)
	}
	return nil, fmt.Errorf("unknown dataset %q (have uwcse, hiv, imdb)", name)
}
