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
//	experiments -exp all -http :6060     # live /metrics /progress /debug/pprof/
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
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: table2|table9|table10|table11|table12|table13|fig2|fig3|ablations|all")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	folds := flag.Int("folds", 0, "cross-validation folds (0 = per-table default)")
	par := flag.Int("par", 4, "coverage-test parallelism")
	seed := flag.Int64("seed", 1, "random seed")
	fig3Defs := flag.Int("fig3-defs", 10, "random definitions per Figure 3 setting")
	verbose := flag.Bool("v", false, "log one line per finished learner span to stderr")
	traceFile := flag.String("trace", "", "write a JSONL span trace to this file")
	chromeFile := flag.String("chrometrace", "", "write a Chrome trace-event (Perfetto) span trace to this file")
	reportFile := flag.String("report", "", "write the JSON run report (for cmd/obsreport) to this file")
	httpAddr := flag.String("http", "", "serve /metrics, /progress, /debug/flightrecorder and /debug/pprof/ on this address (e.g. :6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flightFile := flag.String("flightrecorder", "", "write flight-recorder dumps (JSONL) to this file (default: stderr on dump)")
	watchdogStall := flag.Duration("watchdog-stall", 0, "trip the stall watchdog after this long without heartbeat progress (0 = off)")
	sampleResources := flag.Duration("sample-resources", 0, "sample RSS/heap/goroutines every interval into gauges and the flight recorder (0 = off)")
	timelineFile := flag.String("timeline", "", "write the metric timeline (JSONL) to this file at run end")
	timelineTick := flag.Duration("timeline-tick", obs.DefaultTimelineTick, "metric timeline sampling interval")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var reg *obs.Registry
	var fr *obs.FlightRecorder
	var spanSinks []obs.SpanSink
	var traceSink *obs.JSONLSink
	var chromeSink *obs.ChromeTraceSink
	observing := *verbose || *traceFile != "" || *chromeFile != "" ||
		*reportFile != "" || *httpAddr != "" || *flightFile != "" ||
		*watchdogStall > 0 || *sampleResources > 0 || *timelineFile != ""
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
				fatal(err)
			}
			// Tagged span lines: the span graph is reconstructable
			// offline from the trace.
			traceSink = s
			spanSinks = append(spanSinks, s)
		}
		if *chromeFile != "" {
			s, err := obs.CreateChromeTraceFile(*chromeFile)
			if err != nil {
				fatal(err)
			}
			chromeSink = s
			spanSinks = append(spanSinks, s)
		}
	}
	var graph *obs.GraphSink
	if *reportFile != "" || *httpAddr != "" {
		graph = obs.NewGraphSink(0)
		spanSinks = append(spanSinks, graph)
	}

	start := time.Now()
	obsRun := obs.NewRun(obs.MultiSpanSink(spanSinks...), reg).WithFlightRecorder(fr)
	var tl *obs.Timeline
	if *timelineFile != "" || *httpAddr != "" {
		tl = obs.StartTimeline(obsRun, *timelineTick)
	}
	if *httpAddr != "" {
		srv, err := obs.StartServer(*httpAddr, obsRun, tl, graph)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("introspection server on http://%s/ (/metrics /progress /timeline /critpath /debug/flightrecorder /debug/pprof/)\n", srv.Addr())
	}
	if *sampleResources > 0 {
		smp := obs.StartSampler(obsRun, *sampleResources)
		defer smp.Stop()
	}
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
	order := []string{"table2", "table9", "table10", "table11", "table12", "table13", "fig2", "fig3", "ablations"}

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		run, ok := runners[strings.TrimSpace(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; have %v\n", id, order)
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
	}

	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			fatal(err)
		}
	}
	if chromeSink != nil {
		if err := chromeSink.Close(); err != nil {
			fatal(err)
		}
	}
	if reg != nil {
		obsRun.Sample() // final resource sample, so reports carry RSS/heap gauges
		tl.Stop()       // final timeline tick before the snapshot
		if *timelineFile != "" {
			if err := tl.WriteJSONLFile(*timelineFile); err != nil {
				fatal(err)
			}
		}
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
				Timeline:       tl.Summary(),
			}
			if graph != nil {
				rr.Attrib = obs.Attribute(graph.Graph())
			}
			if err := rr.WriteJSONFile(*reportFile); err != nil {
				fatal(err)
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
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
	if *flightFile != "" {
		if err := fr.DumpNow("run_end"); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
