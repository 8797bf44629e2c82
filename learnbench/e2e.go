package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/datasets"
	"repro/internal/ilp"
)

const (
	// runSlack is how far past -seconds a run may go: a learn still
	// running then counts as an overrun, so that a run of 40 s ends within
	// three minutes. Learns usually take under a second, but one UW-CSE
	// dataset in a few hundred needs one to two minutes for its four.
	runSlack = 130 * time.Second
	// minDatasets is the fewest datasets a run learns, however short.
	minDatasets = 2
)

// runEndToEnd is the untraced run. It learns datasets 0, 1, … of the
// seed, one pass each over every schema, as many datasets as the workload
// learns in cfg.seconds at its pace. Dataset 0 gets an untimed warm-up
// pass first, which its timed pass must repeat. Every learn is checked.
func runEndToEnd(cfg config, out io.Writer) (result, error) {
	hardStop := time.Now().Add(cfg.seconds + runSlack)
	w := cfg.w
	chk, err := newChecker(w, cfg.seed, cfg.defs)
	if err != nil {
		return result{}, err
	}
	params := w.params()
	params.Parallelism = parallelism
	l := w.learner()

	var setupS, passS, allocMB, f1s []float64
	var ds *datasets.Dataset
	for j := 0; j < w.datasets(cfg.seconds); j++ {
		ds = nil // one dataset live at a time, so peak memory reflects one
		runtime.GC()
		var times []float64
		if ds, times, err = repeatSetup(w, datasetSeed(cfg.seed, j)); err != nil {
			return result{}, err
		}
		setupS = append(setupS, times...)
		probs, err := w.problems(ds)
		if err != nil {
			return result{}, err
		}
		chk.dataset(j)
		if j == 0 {
			warm, overran := runPass(l, probs, params, hardStop)
			chk.pass("warm-up", probs, warm)
			if overran {
				break
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		rs, overran := runPass(l, probs, params, hardStop)
		passS = append(passS, time.Since(t).Seconds())
		runtime.ReadMemStats(&m1)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		chk.pass("pass", probs, rs)
		f1s = append(f1s, meanF1(probs, rs))
		if overran {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	n := len(passS)
	metrics := map[string]metric{
		"learn_s":     {median(passS), "s"},
		"setup_s":     {median(setupS), "s"},
		"alloc_mb":    {median(allocMB), "MB"},
		"rss_peak_mb": {rss, "MB"},
	}
	fmt.Fprintln(out, envLine(cfg, n))
	fmt.Fprintf(out, "%-12s %12.6f %-5s median of %d passes, one per dataset; mean %.6f, max %.6f\n",
		"learn_s", metrics["learn_s"].Value, "s", n, mean(passS), maxOf(passS))
	fmt.Fprintf(out, "%-12s %12.6f %-5s median of %d setups over %d datasets; max %.6f\n",
		"setup_s", metrics["setup_s"].Value, "s", len(setupS), n, maxOf(setupS))
	fmt.Fprintf(out, "%-12s %12.3f %-5s heap allocated per pass, median of %d passes; mean %.3f\n", "alloc_mb", metrics["alloc_mb"].Value, "MB", n, mean(allocMB))
	fmt.Fprintf(out, "%-12s %12.3f %-5s VmHWM over %d setups and %d passes\n", "rss_peak_mb", rss, "MB", len(setupS), n+1)
	fmt.Fprintf(out, "%-12s %12.6f %-5s mean training-set F1 over %d datasets x %d schemas\n", "f1", mean(f1s), "ratio", len(f1s), len(w.schemas))
	fmt.Fprintf(out, "%-12s %12.6f %-5s %d of %d learns failed\n", "fail_frac", ratio(float64(chk.failed), float64(chk.attempted)), "ratio", chk.failed, chk.attempted)
	report(out, chk)
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}, nil
}

// repeatSetup times the setup of one dataset w.setups times, keeping the
// last dataset built.
func repeatSetup(w workload, seed int64) (*datasets.Dataset, []float64, error) {
	var ds *datasets.Dataset
	var times []float64
	for range w.setups {
		ds = nil
		t := time.Now()
		var err error
		if ds, err = w.setup(seed); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return ds, times, nil
}

// runPass learns every problem once, back to back. It stops after a learn
// that overruns, with overran set: the abandoned learn keeps running.
func runPass(l ilp.Learner, probs []*ilp.Problem, params ilp.Params, hardStop time.Time) ([]learnResult, bool) {
	rs := make([]learnResult, len(probs))
	for i, p := range probs {
		rs[i] = learn(l, p, params, hardStop)
		if rs[i].err == errOverrun {
			return rs[:i+1], true
		}
	}
	return rs, false
}

// report prints which stored definitions were compared and every failed
// check.
func report(out io.Writer, chk *checker) {
	if len(chk.expected) > 0 {
		fmt.Fprintf(out, "expected definitions: %d stored for seed %d, compared byte for byte\n", len(chk.expected), chk.seed)
	} else {
		fmt.Fprintf(out, "expected definitions: none stored for seed %d; checked repeat and independence only\n", chk.seed)
	}
	for _, f := range chk.failures {
		fmt.Fprintln(out, "FAIL", f)
	}
}
