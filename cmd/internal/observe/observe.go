// Package observe is the observed-run lifecycle of cmd/castor and
// cmd/experiments: it registers their shared observability flags, opens
// what the flags ask for, hands out the one *obs.Run every learn reports
// into, and at the end writes the run report, prints the summary, writes
// the heap profile, dumps the flight recorder and closes every artifact.
//
// One policy holds for both binaries (README "Observability"). The flight
// recorder is always on: SIGQUIT, a watchdog stall and a panic dump it, and
// so does the end of a run under -flightrecorder, whose file holds every
// dump of the run in order. The registry exists only when something reads
// it: the summary and the report (-v, -trace, -report).
package observe

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Flags are the observability flags both binaries share.
type Flags struct {
	Verbose                bool
	Trace, ChromeTrace     string
	Report, FlightRecorder string
	WatchdogStall          time.Duration
	CPUProfile, MemProfile string
}

// Register defines the flags on fs under their command-line names.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Verbose, "v", false, "log one line per finished learner span to stderr")
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL span trace to this file")
	fs.StringVar(&f.ChromeTrace, "chrometrace", "", "write a Chrome trace-event (Perfetto) span trace to this file")
	fs.StringVar(&f.Report, "report", "", "write the JSON run report (for cmd/obsreport) to this file")
	fs.StringVar(&f.FlightRecorder, "flightrecorder", "", "write every flight-recorder dump (JSONL) to this file, one after another, the run-end dump last (default: stderr on dump)")
	fs.DurationVar(&f.WatchdogStall, "watchdog-stall", 0, "trip the stall watchdog after this long without heartbeat progress (0 = off)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
}

// Session is one observed run of a binary.
type Session struct {
	// Run is the run every learn of the session reports into.
	Run *obs.Run

	flags     Flags
	ring      *obs.FlightRecorder
	sigq      chan os.Signal
	sigDone   chan struct{} // closed when the SIGQUIT goroutine exits
	wd        *obs.Watchdog
	profiling bool
	artifacts []artifact
}

// artifact is an open output file, closed when the session ends.
type artifact struct {
	what string
	c    io.Closer
}

// Start opens what the flags ask for. prov, when non-nil, records the
// search graph on the session's run, and the session closes it with the
// other artifacts. When Start fails, it closes what it opened, prov
// included.
func Start(f Flags, prov *obs.Prov) (_ *Session, err error) {
	s := &Session{flags: f}
	if prov != nil {
		s.artifacts = append(s.artifacts, artifact{"provenance", prov})
	}
	defer func() {
		if err != nil {
			s.close(&err)
		}
	}()
	var dump io.Writer // nil: dumps go to stderr
	if f.FlightRecorder != "" {
		file, err := os.Create(f.FlightRecorder)
		if err != nil {
			return nil, err
		}
		s.artifacts = append(s.artifacts, artifact{"flight recorder", file})
		dump = file
	}
	s.ring = obs.NewFlightRecorder(0, dump)
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		s.artifacts = append(s.artifacts, artifact{"CPU profile", file})
		if err := pprof.StartCPUProfile(file); err != nil {
			return nil, err
		}
		s.profiling = true
	}
	sinks := []obs.SpanSink{s.ring}
	if f.Verbose {
		sinks = append(sinks, obs.NewTextSink(os.Stderr))
	}
	if f.Trace != "" {
		t, err := obs.CreateJSONLFile(f.Trace)
		if err != nil {
			return nil, err
		}
		s.artifacts = append(s.artifacts, artifact{"trace", t})
		sinks = append(sinks, t)
	}
	if f.ChromeTrace != "" {
		c, err := obs.CreateChromeTraceFile(f.ChromeTrace)
		if err != nil {
			return nil, err
		}
		s.artifacts = append(s.artifacts, artifact{"Chrome trace", c})
		sinks = append(sinks, c)
	}
	var reg *obs.Registry
	if f.Verbose || f.Trace != "" || f.Report != "" {
		reg = obs.NewRegistry()
	}
	s.Run = obs.NewRun(obs.MultiSpanSink(sinks...), reg).WithProvenance(prov)

	s.sigq, s.sigDone = make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(s.sigq, syscall.SIGQUIT)
	go func(ring *obs.FlightRecorder, sigq <-chan os.Signal, done chan<- struct{}) {
		defer close(done)
		// SIGQUIT dumps the ring and keeps running (like a JVM thread
		// dump), so an operator can probe a live learn repeatedly.
		for range sigq {
			ring.DumpNow("sigquit") //nolint:errcheck // best-effort operator dump
		}
	}(s.ring, s.sigq, s.sigDone)
	// The watchdog watches s.Run itself: WithProvenance made a new run
	// with its own heartbeat.
	s.wd = obs.StartWatchdog(s.Run, f.WatchdogStall, stallHook(s.ring, os.Stderr))
	return s, nil
}

// Finish ends a successful run. With a registry it takes the run's one
// resource sample, writes the run report under -report (the session
// fills in its time, environment and metrics; the caller the rest) and
// prints the summary on out. Then it writes the heap profile under
// -memprofile and the flight recorder's run-end dump under
// -flightrecorder.
func (s *Session) Finish(out io.Writer, seed int64, rr *obs.RunReport) error {
	if reg := s.Run.Registry(); reg != nil {
		s.Run.Sample()
		rr.Metrics = reg.Snapshot()
		if s.flags.Report != "" {
			rr.When, rr.Env = time.Now(), obs.CaptureEnv(seed)
			if err := rr.WriteJSONFile(s.flags.Report); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "\nrun metrics:\n")
		rr.Metrics.WriteSummary(out)
	}
	if s.flags.MemProfile != "" {
		f, err := os.Create(s.flags.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
			return err
		}
	}
	if s.flags.FlightRecorder != "" {
		// The dump is appended after any earlier watchdog or sigquit dump.
		if err := s.ring.DumpNow("run_end"); err != nil {
			return fmt.Errorf("writing flight recorder dump: %w", err)
		}
	}
	return nil
}

// Close ends the session on every return path; defer it directly after
// Start. A panic in the run dumps the flight recorder with reason "panic"
// and is raised again once every artifact is closed. An error closing an
// artifact becomes *errp unless the run already failed.
func (s *Session) Close(errp *error) {
	p := recover()
	if p != nil {
		s.ring.DumpNow("panic") //nolint:errcheck // best-effort crash dump
	}
	s.close(errp)
	if p != nil {
		panic(p)
	}
}

// close stops the watchdog, the SIGQUIT handler and the CPU profile, and
// closes every artifact, so a failed run still leaves complete files.
func (s *Session) close(errp *error) {
	s.wd.Stop()
	if s.sigq != nil {
		signal.Stop(s.sigq) // after Stop no signal is sent on sigq
		close(s.sigq)
		<-s.sigDone
	}
	if s.profiling {
		pprof.StopCPUProfile()
	}
	for _, a := range s.artifacts {
		if err := a.c.Close(); err != nil && *errp == nil {
			*errp = fmt.Errorf("writing %s: %w", a.what, err)
		}
	}
}

// stallHook is the stall watchdog's action: it logs the live span stack
// to w, records the stall in the ring and dumps it.
func stallHook(ring *obs.FlightRecorder, w io.Writer) func(obs.StallInfo) {
	return func(si obs.StallInfo) {
		fmt.Fprintf(w, "watchdog: no heartbeat progress for %s (trip %d); live spans:\n",
			si.Stalled.Round(time.Millisecond), si.Trips)
		if len(si.Spans) == 0 {
			fmt.Fprintln(w, "  (no open spans)")
		}
		for _, sp := range si.Spans {
			fmt.Fprintf(w, "  %s (open %.2fs, id %d)\n", sp.Name, sp.ElapsedSeconds, sp.ID)
		}
		ring.Record(obs.FKWatchdog, "stall", int64(si.Stalled), si.Trips)
		ring.DumpNow("watchdog") //nolint:errcheck // best-effort stall dump
	}
}
