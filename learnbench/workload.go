package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/castor"
	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/progol"
)

// workload is one set of inputs the benchmark learns: a generated dataset,
// the schemas of it learned back to back in one pass, and the learner with
// its §9.1.2 settings. NOTES.md records why each workload exists.
type workload struct {
	name string
	// scale multiplies the generator's base size; generator names the
	// datasets function generate calls.
	scale     float64
	generate  func(seed int64, scale float64) (*datasets.Dataset, error)
	generator string
	// schemas are the variants one pass learns, in order.
	schemas []string
	// pace is about how long one dataset, setup and pass, takes on the
	// reference machine (a 2-vCPU VM at parallelism 2). A run of -seconds
	// learns seconds/pace datasets: the count, and with it every input, is
	// fixed by the arguments, so a faster commit learns the same datasets
	// as a slower one and merely finishes sooner.
	pace time.Duration
	// setups is how many times a run sets up each dataset for setup_s:
	// datasets that generate in milliseconds need repetitions for a
	// steady median.
	setups int
	// stored is how many datasets -write-expected stores definitions for;
	// a run checks any later dataset for repeats and independence only.
	stored int
	// learner builds a fresh learner from module.
	learner func() ilp.Learner
	module  string
	params  func() ilp.Params
}

// schemaIndependent reports whether the workload's learner claims schema
// independence, so that its definitions must cover the same examples on
// every schema: Castor's does.
func (w workload) schemaIndependent() bool { return w.module == "castor" }

// workloads is the benchmark's catalogue, in the order NOTES.md lists it.
var workloads = []workload{
	{
		name: "uwcse-direct", scale: 30, generate: genUWCSE, generator: "GenerateUWCSE",
		schemas: []string{"Original", "4NF", "Denormalized-1", "Denormalized-2"},
		pace:    1300 * time.Millisecond, setups: 1, stored: 40,
		learner: func() ilp.Learner { return castor.New() }, module: "castor",
		params: uwcseParams,
	},
	{
		name: "uwcse-subsumption", scale: 30, generate: genUWCSE, generator: "GenerateUWCSE",
		schemas: []string{"Original", "4NF", "Denormalized-1", "Denormalized-2"},
		pace:    2500 * time.Millisecond, setups: 1, stored: 24,
		learner: func() ilp.Learner { return castor.New() }, module: "castor",
		params: uwcseSubsumptionParams,
	},
	{
		name: "hiv-subsumption", scale: 2, generate: genHIV, generator: "GenerateHIV",
		schemas: []string{"Initial", "4NF-1", "4NF-2"},
		pace:    3500 * time.Millisecond, setups: 1, stored: 8,
		learner: func() ilp.Learner { return castor.New() }, module: "castor",
		params: castorParams,
	},
	{
		name: "imdb-subsumption", scale: 5, generate: genIMDb, generator: "GenerateIMDb",
		schemas: []string{"JMDB", "Stanford", "Denormalized"},
		pace:    2100 * time.Millisecond, setups: 1, stored: 8,
		learner: func() ilp.Learner { return castor.New() }, module: "castor",
		params: castorParams,
	},
	{
		name: "uwcse-aleph", scale: 2, generate: genUWCSE, generator: "GenerateUWCSE",
		schemas: []string{"Original", "Denormalized-2"},
		pace:    4500 * time.Millisecond, setups: 30, stored: 8,
		learner: func() ilp.Learner { return progol.NewAlephProgol() }, module: "progol",
		params: uwcseParams,
	},
}

// datasets is how many datasets a run of the given length learns.
func (w workload) datasets(seconds time.Duration) int {
	return max(minDatasets, int(seconds/w.pace))
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// datasetSeed is the generator seed of a run's dataset j: the workload
// seed itself for the first dataset, a splitmix64 mix of it and j for the
// others, so that runs with nearby seeds share no dataset.
func datasetSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	z := uint64(seed) + uint64(j)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

func genUWCSE(seed int64, scale float64) (*datasets.Dataset, error) {
	c := datasets.DefaultUWCSE()
	c.Seed, c.Scale = seed, scale
	return datasets.GenerateUWCSE(c)
}

func genHIV(seed int64, scale float64) (*datasets.Dataset, error) {
	c := datasets.DefaultHIV2K4K()
	c.Seed, c.Scale = seed, scale
	return datasets.GenerateHIV(c)
}

func genIMDb(seed int64, scale float64) (*datasets.Dataset, error) {
	c := datasets.DefaultIMDb()
	c.Seed, c.Scale = seed, scale
	return datasets.GenerateIMDb(c)
}

// uwcseParams and castorParams are the settings internal/experiments uses
// for Table 10 and for Tables 9 and 11.
func uwcseParams() ilp.Params {
	p := ilp.Defaults()
	p.Sample = 8
	p.BeamWidth = 3
	return p
}

// uwcseSubsumptionParams are uwcseParams with the other coverage mode.
func uwcseSubsumptionParams() ilp.Params {
	p := uwcseParams()
	p.CoverageMode = ilp.CoverageSubsumption
	return p
}

func castorParams() ilp.Params {
	p := ilp.Defaults()
	p.Sample = 1
	p.BeamWidth = 1
	p.CoverageMode = ilp.CoverageSubsumption
	return p
}

// setup generates the workload's dataset and freezes every variant's
// instance, the two steps setup_s times.
func (w workload) setup(seed int64) (*datasets.Dataset, error) {
	ds, err := w.generate(seed, w.scale)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	for _, v := range ds.Variants {
		v.Instance.Freeze()
	}
	return ds, nil
}

// problems returns one learning problem per schema of the workload.
func (w workload) problems(ds *datasets.Dataset) ([]*ilp.Problem, error) {
	out := make([]*ilp.Problem, len(w.schemas))
	for i, s := range w.schemas {
		p, err := ds.Problem(s)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// learnResult is the outcome of one Learn call.
type learnResult struct {
	def     *logic.Definition
	err     error
	elapsed time.Duration
}

// learn runs one Learn on its own goroutine so that an overrun can be
// reported: when the deadline passes first, the result carries an overrun
// error and the caller must stop the run, since the abandoned learn still
// holds the CPU. A panic becomes an error.
func learn(l ilp.Learner, prob *ilp.Problem, params ilp.Params, deadline time.Time) learnResult {
	done := make(chan learnResult, 1)
	start := time.Now()
	go func() {
		var r learnResult
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 4096)
				r.err = fmt.Errorf("panic: %v\n%s", p, buf[:runtime.Stack(buf, false)])
			}
			r.elapsed = time.Since(start)
			done <- r
		}()
		r.def, r.err = l.Learn(prob, params)
	}()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case r := <-done:
		return r
	case <-timer.C:
		return learnResult{err: errOverrun, elapsed: time.Since(start)}
	}
}

var errOverrun = fmt.Errorf("overran the run's time limit")
