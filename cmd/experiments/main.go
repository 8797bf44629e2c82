// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                 # everything, laptop scale
//	experiments -exp table10 -folds 5    # one experiment
//	experiments -exp table9 -scale 0.5   # smaller/faster
//
//	# observability: aggregate counters and spans across every learner run
//	experiments -exp table10 -v -trace trace.jsonl -report run.json
//	experiments -exp table10 -chrometrace trace.json
//	experiments -exp all -flightrecorder flight.jsonl -watchdog-stall 1m
//	experiments -exp fig2 -cpuprofile cpu.pprof
//
// Experiments: table2, table9, table10, table11, table12, table13, fig2,
// fig3, all. One observed run covers all selected experiments: its flight
// recorder is always on, and with -v/-trace/-report one registry
// aggregates across them (see README "Observability").
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/cmd/internal/observe"
	"repro/internal/experiments"
	"repro/internal/obs"
)

var (
	exp      = flag.String("exp", "all", "experiment id: table2|table9|table10|table11|table12|table13|fig2|fig3|ablations|all")
	scale    = flag.Float64("scale", 1.0, "dataset scale factor")
	folds    = flag.Int("folds", 0, "cross-validation folds (0 = per-table default)")
	par      = flag.Int("par", 4, "coverage-test parallelism")
	seed     = flag.Int64("seed", 1, "random seed")
	fig3Defs = flag.Int("fig3-defs", 10, "random definitions per Figure 3 setting")
	obsFlags observe.Flags
)

// order lists every experiment id in the order -exp all runs them.
var order = []string{"table2", "table9", "table10", "table11", "table12", "table13", "fig2", "fig3", "ablations"}

func main() {
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	ids := order
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !slices.Contains(order, ids[i]) {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; have %v\n", id, order)
				os.Exit(2)
			}
		}
	}
	if err := run(ids); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the experiments ids in order under one observed run.
func run(ids []string) (err error) {
	s, err := observe.Start(obsFlags, nil)
	if err != nil {
		return err
	}
	defer s.Close(&err)

	start := time.Now()
	cfg := experiments.Config{
		Scale:       *scale,
		Folds:       *folds,
		Parallelism: *par,
		Seed:        *seed,
		Out:         os.Stdout,
		Obs:         s.Run,
	}
	runners := map[string]func() error{
		"table2":    func() error { _, err := experiments.Table2(cfg); return err },
		"table9":    func() error { _, err := experiments.Table9(cfg); return err },
		"table10":   func() error { _, err := experiments.Table10(cfg); return err },
		"table11":   func() error { _, err := experiments.Table11(cfg); return err },
		"table12":   func() error { _, err := experiments.Table12(cfg); return err },
		"table13":   func() error { _, err := experiments.Table13(cfg); return err },
		"fig2":      func() error { _, err := experiments.Figure2(cfg, nil); return err },
		"fig3":      func() error { _, err := experiments.Figure3(cfg, *fig3Defs, nil); return err },
		"ablations": func() error { _, err := experiments.Ablations(cfg); return err },
	}
	for _, id := range ids {
		if err := runners[id](); err != nil {
			return fmt.Errorf("experiment %s failed: %w", id, err)
		}
	}
	return s.Finish(os.Stdout, *seed, &obs.RunReport{
		Tool:    "experiments",
		Dataset: *exp,
		Params: map[string]any{
			"scale": *scale,
			"folds": *folds,
			"par":   *par,
			"seed":  *seed,
		},
		ElapsedSeconds: time.Since(start).Seconds(),
	})
}
