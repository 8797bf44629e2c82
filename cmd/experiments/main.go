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
// fig3, all. With -v/-trace/-chrometrace/-report, one registry and one
// span stream cover all selected experiments (see README
// "Observability").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

var (
	exp           = flag.String("exp", "all", "experiment id: table2|table9|table10|table11|table12|table13|fig2|fig3|ablations|all")
	scale         = flag.Float64("scale", 1.0, "dataset scale factor")
	folds         = flag.Int("folds", 0, "cross-validation folds (0 = per-table default)")
	par           = flag.Int("par", 4, "coverage-test parallelism")
	seed          = flag.Int64("seed", 1, "random seed")
	fig3Defs      = flag.Int("fig3-defs", 10, "random definitions per Figure 3 setting")
	verbose       = flag.Bool("v", false, "log one line per finished learner span to stderr")
	traceFile     = flag.String("trace", "", "write a JSONL span trace to this file")
	chromeFile    = flag.String("chrometrace", "", "write a Chrome trace-event (Perfetto) span trace to this file")
	reportFile    = flag.String("report", "", "write the JSON run report (for cmd/obsreport) to this file")
	cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile    = flag.String("memprofile", "", "write a heap profile to this file")
	flightFile    = flag.String("flightrecorder", "", "write flight-recorder dumps (JSONL) to this file (default: stderr on dump)")
	watchdogStall = flag.Duration("watchdog-stall", 0, "trip the stall watchdog after this long without heartbeat progress (0 = off)")
)

// order lists every experiment id in the order -exp all runs them.
var order = []string{"table2", "table9", "table10", "table11", "table12", "table13", "fig2", "fig3", "ablations"}

func main() {
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
// Every file sink is closed on every return path, so a failed
// experiment still leaves a complete trace.
func run(ids []string) (runErr error) {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var reg *obs.Registry
	var fr *obs.FlightRecorder
	var spanSinks []obs.SpanSink
	observing := *verbose || *traceFile != "" || *chromeFile != "" ||
		*reportFile != "" || *flightFile != "" || *watchdogStall > 0
	if observing {
		reg = obs.NewRegistry()
		fr = obs.NewFlightRecorder(0)
		fr.SetDumpPath(*flightFile)
		sigq := make(chan os.Signal, 1)
		signal.Notify(sigq, syscall.SIGQUIT)
		defer signal.Stop(sigq)
		go func() {
			// Dump and keep running, like a JVM thread dump.
			for range sigq {
				fr.DumpNow("sigquit") //nolint:errcheck // best-effort operator dump
			}
		}()
		if *verbose {
			spanSinks = append(spanSinks, obs.NewTextSink(os.Stderr))
		}
		if *traceFile != "" {
			s, err := obs.CreateJSONLFile(*traceFile)
			if err != nil {
				return err
			}
			defer closeOnReturn(&runErr, s, "trace")
			spanSinks = append(spanSinks, s)
		}
		if *chromeFile != "" {
			s, err := obs.CreateChromeTraceFile(*chromeFile)
			if err != nil {
				return err
			}
			defer closeOnReturn(&runErr, s, "Chrome trace")
			spanSinks = append(spanSinks, s)
		}
	}

	start := time.Now()
	obsRun := obs.NewRun(obs.MultiSpanSink(spanSinks...), reg).WithFlightRecorder(fr)
	if *watchdogStall > 0 {
		wd := obs.StartWatchdog(obsRun, *watchdogStall, func(si obs.StallInfo) {
			fmt.Fprintf(os.Stderr, "watchdog: no heartbeat progress for %s (trip %d); live spans:\n",
				si.Stalled.Round(time.Millisecond), si.Trips)
			for _, s := range si.Spans {
				fmt.Fprintf(os.Stderr, "  %s (open %.2fs, id %d)\n", s.Name, s.ElapsedSeconds, s.ID)
			}
			fr.DumpNow("watchdog") //nolint:errcheck // best-effort stall dump
		})
		defer wd.Stop()
	}
	cfg := experiments.Config{
		Scale:       *scale,
		Folds:       *folds,
		Parallelism: *par,
		Seed:        *seed,
		Out:         os.Stdout,
		Obs:         obsRun,
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

	if reg != nil {
		obsRun.Sample() // the run's one resource sample, so reports carry RSS/heap gauges
		report := reg.Snapshot()
		if *reportFile != "" {
			rr := &obs.RunReport{
				Tool:    "experiments",
				When:    time.Now(),
				Dataset: *exp,
				Params: map[string]any{
					"scale": *scale,
					"folds": *folds,
					"par":   *par,
					"seed":  *seed,
				},
				ElapsedSeconds: time.Since(start).Seconds(),
				Metrics:        report,
			}
			if err := rr.WriteJSONFile(*reportFile); err != nil {
				return err
			}
		}
		if *verbose || *traceFile != "" || *reportFile != "" {
			fmt.Println("\nrun metrics (all experiments):")
			report.WriteSummary(os.Stdout)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if *flightFile != "" {
		if err := fr.DumpNow("run_end"); err != nil {
			return fmt.Errorf("writing flight recorder dump: %w", err)
		}
	}
	return nil
}

// closeOnReturn closes one of run's output files when run returns, on
// every path, and reports the close error unless run already failed.
func closeOnReturn(runErr *error, c io.Closer, what string) {
	if err := c.Close(); err != nil && *runErr == nil {
		*runErr = fmt.Errorf("writing %s: %w", what, err)
	}
}
