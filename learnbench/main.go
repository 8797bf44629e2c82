// Command learnbench is the repository's Learn-level benchmark. One
// invocation generates one workload's inputs from a seed, learns every
// schema of the workload back to back in a closed loop with one client,
// checks the learned definitions, and prints its metrics by name with
// their units. With -trace 0 those are the end-to-end metrics (tracing
// off); with -trace 1 they are per-layer metrics, timed from outside by
// calling each layer's public functions on the same inputs. The last line
// of standard output is one JSON object.
//
//	go build -o learnbench . && ./learnbench -workload uwcse-direct -seed 1 -seconds 10 -trace 0
//
// NOTES.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/logic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	w        workload
	seed     int64
	seconds  time.Duration
	defs     fs.FS  // stored expected definitions
	traceDir string // where the traced run writes its spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("learnbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: uwcse-direct, uwcse-subsumption, hiv-subsumption, imdb-subsumption or uwcse-aleph")
	seed := flags.Int64("seed", defaultSeed, "workload seed, from which the datasets' generator seeds derive")
	seconds := flags.Int("seconds", 40, "run length in seconds on the reference machine: a run learns a fixed number of datasets, this divided by the workload's pace")
	trace := flags.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceDir := flags.String("trace-dir", ".bench_build/traces", "directory the traced run writes its Chrome trace to")
	writeDir := flags.String("write-expected", "", "learn the workload's datasets once and store the definitions under `dir`/expected instead of measuring")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "learnbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "learnbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if err := checkEnv(runtime.NumCPU(), os.Getenv("GOMAXPROCS")); err != nil {
		fmt.Fprintln(stderr, "learnbench: refusing to run:", err)
		return 2
	}
	runtime.GOMAXPROCS(parallelism)
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		defs: expectedDefs, traceDir: *traceDir}

	if *writeDir != "" {
		if err := storeExpected(cfg, *writeDir, stderr); err != nil {
			fmt.Fprintln(stderr, "learnbench:", err)
			return 1
		}
		return 0
	}
	var res result
	if *trace == 0 {
		res, err = runEndToEnd(cfg, stdout)
	} else {
		res, err = runTraced(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "learnbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "learnbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// parallelism is both GOMAXPROCS and Params.Parallelism of every run.
const parallelism = 2

// checkEnv refuses a machine with fewer than parallelism CPUs, and a
// GOMAXPROCS environment setting env above its cpus: oversubscribed runs
// measure scheduling, not scaling.
func checkEnv(cpus int, env string) error {
	if parallelism > cpus {
		return fmt.Errorf("GOMAXPROCS = Parallelism = %d exceeds NumCPU=%d", parallelism, cpus)
	}
	if env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n > cpus {
			return fmt.Errorf("GOMAXPROCS=%s exceeds NumCPU=%d", env, cpus)
		}
	}
	return nil
}

// envLine records the conditions of a result; passes counts the timed
// passes, or the traced run's learn pairs.
func envLine(cfg config, passes int) string {
	return fmt.Sprintf("env workload=%s seed=%d NumCPU=%d GOMAXPROCS=%d Parallelism=%d go=%s revision=%s passes=%d",
		cfg.w.name, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), parallelism, runtime.Version(), revision(), passes)
}

// revision is the VCS revision the binary was built from, "unknown"
// outside a version-controlled checkout.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// storeExpected learns one pass over each of the workload's datasets, and
// the traced run's progol sample of dataset 0, and writes the definitions.
// A dataset on which a learn fails is left out, and said so on stderr.
func storeExpected(cfg config, dir string, stderr io.Writer) error {
	params := cfg.w.params()
	params.Parallelism = parallelism
	l := cfg.w.learner()
	defs := make([][]*logic.Definition, cfg.w.stored)
	var sample *logic.Definition
	for j := range defs {
		ds, err := cfg.w.setup(datasetSeed(cfg.seed, j))
		if err != nil {
			return err
		}
		probs, err := cfg.w.problems(ds)
		if err != nil {
			return err
		}
		if j == 0 {
			r := learnProgolSample(probs[0], time.Now().Add(runSlack))
			if r.err != nil {
				return fmt.Errorf("progol sample: %w", r.err)
			}
			sample = r.def
		}
		rs, _ := runPass(l, probs, params, time.Now().Add(runSlack))
		for i, r := range rs {
			if r.err != nil {
				fmt.Fprintf(stderr, "learnbench: not storing dataset %d: schema %s: %v\n", j, cfg.w.schemas[i], firstLine(r.err.Error()))
				defs[j] = nil
				break
			}
			defs[j] = append(defs[j], r.def)
		}
		if len(rs) < len(probs) {
			break // an abandoned learn is still running
		}
	}
	return writeExpected(dir, cfg.w, cfg.seed, defs, sample)
}
