package sirl_test

// Machine-readable benchmark emitter. `BENCH_JSON=BENCH_castor.json go test
// -run TestEmitBenchJSON` runs a curated subset of the benchmarks through
// testing.Benchmark and writes one JSON file holding one document per
// GOMAXPROCS setting (BENCH_PROCS, comma-separated; default: the current
// setting), each with ns/op plus the custom per-op metrics (covtests/op,
// covhits/op, nodes/op, ...) the benchmarks report. Parallel entries carry
// a parallel_speedup extra — serial ns/op over parallel ns/op within the
// same document — so the scaling curve, not just single-core numbers, is
// the regression surface. The format is documented in DESIGN.md and
// consumed by the CI bench-smoke job via `obsreport -bench`.

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/relstore"
)

// benchEntry is one benchmark result within a document.
type benchEntry struct {
	Name    string             `json:"name"`
	Iters   int                `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchDocument is one GOMAXPROCS setting's results. CPUs is the effective
// GOMAXPROCS the document's benchmarks ran under.
type benchDocument struct {
	CPUs         int          `json:"cpus"`
	RSSPeakBytes int64        `json:"rss_peak_bytes"`
	Benchmarks   []benchEntry `json:"benchmarks"`
}

// benchFile is the top-level BENCH_castor.json shape: environment
// identification plus one document per GOMAXPROCS setting.
type benchFile struct {
	Suite     string          `json:"suite"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	Documents []benchDocument `json:"documents"`
}

// benchProcs parses BENCH_PROCS into the GOMAXPROCS settings to emit
// documents for; unset means one document at the current setting.
func benchProcs(t *testing.T) []int {
	env := os.Getenv("BENCH_PROCS")
	if env == "" {
		return []int{runtime.GOMAXPROCS(0)}
	}
	var procs []int
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			t.Fatalf("BENCH_PROCS=%q: each field must be a positive integer", env)
		}
		procs = append(procs, n)
	}
	return procs
}

// TestEmitBenchJSON is skipped unless BENCH_JSON names an output path. It
// deliberately runs a small, fast subset — the scenarios whose custom
// metrics the regression tooling watches — not the full table/figure suite.
func TestEmitBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to emit the benchmark JSON document")
	}

	prob := benchUWCSEProblem(t, true)
	cands := buildScoringCandidates(t, prob)
	plan := relstore.CompilePlan(prob.Instance.Schema(), false)
	rd := benchRelstoreData(t)

	measure := func(name string, f func(*testing.B)) benchEntry {
		r := testing.Benchmark(f)
		if r.N == 0 {
			t.Fatalf("%s: benchmark did not run (a b.Fatal inside testing.Benchmark aborts silently)", name)
		}
		e := benchEntry{Name: name, Iters: r.N, NsPerOp: float64(r.NsPerOp()), Metrics: map[string]float64{}}
		for metric, v := range r.Extra {
			e.Metrics[metric] = v
		}
		// mem_bytes/op is the heap bytes each op allocates (the benchmark
		// helpers call b.ReportAllocs), the per-scenario memory regression
		// surface next to the document-level RSS peak.
		e.Metrics["mem_bytes/op"] = float64(r.AllocedBytesPerOp())
		return e
	}

	file := benchFile{
		Suite:     "castor",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range benchProcs(t) {
		runtime.GOMAXPROCS(procs)
		doc := benchDocument{CPUs: procs}

		serial := measure("CandidateScoring/serial", func(b *testing.B) { benchScoreBatch(b, prob, cands, 1, true) })
		par := measure("CandidateScoring/parallel", func(b *testing.B) { benchScoreBatch(b, prob, cands, procs, true) })
		par.Metrics["parallel_speedup"] = serial.NsPerOp / par.NsPerOp
		doc.Benchmarks = append(doc.Benchmarks, serial, par,
			measure("CandidateScoring/cached", func(b *testing.B) { benchScoreBatch(b, prob, cands, procs, false) }),
		)
		for _, shape := range subsumptionShapes() {
			shape := shape
			doc.Benchmarks = append(doc.Benchmarks,
				measure("Subsumption/"+shape.name+"/compiled", func(b *testing.B) { benchSubsumptionCompiled(b, shape) }))
		}
		doc.Benchmarks = append(doc.Benchmarks,
			measure("BottomClause/serial", func(b *testing.B) { benchBottomClause(b, prob, plan) }))

		// Relstore: load and probe, legacy versus columnar on an identical
		// workload. The columnar side carries its advantage as explicit
		// extras so CI can gate them as absolute floors (@>=) — the
		// checked-in baseline predates the columnar store, so ratio gates
		// against the baseline file would have nothing to compare to. The
		// +1 in the denominator guards the ratio against a zero-allocation
		// probe op (which the columnar side achieves on the frozen store).
		loadLegacy := measure("RelstoreLoad/legacy", func(b *testing.B) { benchRelstoreLoad(b, rd, false) })
		loadCol := measure("RelstoreLoad/columnar", func(b *testing.B) { benchRelstoreLoad(b, rd, true) })
		loadCol.Metrics["speedup_vs_legacy"] = loadLegacy.NsPerOp / loadCol.NsPerOp
		probeLegacy := measure("RelstoreProbe/legacy", func(b *testing.B) { benchRelstoreProbeLegacy(b, rd) })
		probeCol := measure("RelstoreProbe/columnar", func(b *testing.B) { benchRelstoreProbeColumnar(b, rd) })
		probeCol.Metrics["speedup_vs_legacy"] = probeLegacy.NsPerOp / probeCol.NsPerOp
		probeCol.Metrics["mem_ratio_vs_legacy"] = probeLegacy.Metrics["mem_bytes/op"] / (probeCol.Metrics["mem_bytes/op"] + 1)
		doc.Benchmarks = append(doc.Benchmarks, loadLegacy, loadCol, probeLegacy, probeCol)

		// RSS after the document's suite: the process's high-water resident
		// set, the "RSS tracked in BENCH" hook of the roadmap. Monotone
		// across documents (it is a high-water mark), still recorded per
		// document so single-document CI runs stay comparable.
		doc.RSSPeakBytes = obs.ReadRSS()
		file.Documents = append(file.Documents, doc)
	}

	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d documents to %s", len(file.Documents), path)
}
