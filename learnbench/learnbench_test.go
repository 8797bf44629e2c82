package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
	"time"

	"repro/internal/logic"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny shrinks a workload so that a run takes about a second.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.scale = map[string]float64{
		"uwcse-direct": 1, "uwcse-subsumption": 1, "hiv-subsumption": 0.2, "imdb-subsumption": 0.3, "uwcse-aleph": 0.5,
	}[name]
	w.stored = 2
	return w
}

func tinyConfig(t *testing.T, w workload, defs fs.FS) config {
	return config{w: w, seed: 3, seconds: time.Second, defs: defs, traceDir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestBenchmarkFileNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, list := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
		}
	}
	for _, w := range bf.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at a tiny scale, untraced and
// traced, and checks the result line carries exactly the metrics
// BENCHMARK.json lists, with their units.
func TestSmokeAllWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		w := tiny(t, w.name)
		t.Run(w.name, func(t *testing.T) {
			for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
				cfg := tinyConfig(t, w, fstest.MapFS{})
				start := time.Now()
				var out bytes.Buffer
				var res result
				var err error
				if trace == 0 {
					res, err = runEndToEnd(cfg, &out)
				} else {
					res, err = runTraced(cfg, &out)
				}
				if err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); d > 30*time.Second {
					t.Errorf("trace=%d took %v", trace, d)
				}
				if res.Attempted < len(w.schemas) {
					t.Errorf("trace=%d attempted %d learns", trace, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%d emitted %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for name := range res.Metrics {
					if !nameRE.MatchString(name) {
						t.Errorf("trace=%d emitted metric name %q", trace, name)
					}
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%d metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
				}
				if !strings.Contains(out.String(), "env workload="+w.name) {
					t.Errorf("trace=%d output records no environment:\n%s", trace, out.String())
				}
				if trace == 1 {
					b, err := os.ReadFile(filepath.Join(cfg.traceDir, w.name+"-seed3.json"))
					if err != nil || !json.Valid(b) {
						t.Errorf("traced run wrote no valid trace: %v", err)
					}
				}
			}
		})
	}
}

func TestUWCSETinyRunIsCorrect(t *testing.T) {
	var out bytes.Buffer
	res, err := runEndToEnd(tinyConfig(t, tiny(t, "uwcse-direct"), fstest.MapFS{}), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("tiny uwcse-direct run failed:\n%s", out.String())
	}
	// minDatasets datasets, the first with a warm-up pass, four schemas.
	if want := 4 * (minDatasets + 1); res.Attempted != want {
		t.Errorf("attempted %d learns, want %d", res.Attempted, want)
	}
	for _, m := range []string{"learn_s", "setup_s", "alloc_mb", "rss_peak_mb", "f1", "fail_frac"} {
		if !strings.Contains(out.String(), m+" ") {
			t.Errorf("output does not print %s:\n%s", m, out.String())
		}
	}
}

// TestDatasetCountIsFixed checks that how many datasets a run learns
// depends on its length only, never on how fast it learns them.
func TestDatasetCountIsFixed(t *testing.T) {
	w, err := findWorkload("uwcse-direct")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.datasets(40 * time.Second); got != 30 {
		t.Errorf("uwcse-direct learns %d datasets in a 40 s run, want 30", got)
	}
	if got := w.datasets(time.Second); got != minDatasets {
		t.Errorf("uwcse-direct learns %d datasets in a 1 s run, want %d", got, minDatasets)
	}
}

// TestTamperedExpectedDefinitionFails stores the definitions a tiny run
// learns, alters one, and checks the run then counts a failed learn and
// names the check; likewise for the traced run's progol sample.
func TestTamperedExpectedDefinitionFails(t *testing.T) {
	w := tiny(t, "uwcse-direct")
	dir := t.TempDir()
	cfg := tinyConfig(t, w, nil)
	if err := storeExpected(cfg, dir, os.Stderr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, filepath.FromSlash(expectedPath(w.name, cfg.seed)))
	stored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	run := func(content []byte, traced bool) (result, string) {
		cfg.defs = fstest.MapFS{expectedPath(w.name, cfg.seed): {Data: content}}
		var out bytes.Buffer
		var res result
		var err error
		if traced {
			res, err = runTraced(cfg, &out)
		} else {
			res, err = runEndToEnd(cfg, &out)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, out.String()
	}
	if res, out := run(stored, false); res.Failed != 0 {
		t.Fatalf("untampered definitions fail:\n%s", out)
	}
	tampered := bytes.Replace(stored, []byte(":-"), []byte(":- extra(V9),"), 1)
	res, out := run(tampered, false)
	if res.Failed == 0 || res.Correct {
		t.Fatalf("tampered definition passed:\n%s", out)
	}
	if !strings.Contains(out, "check=expected") {
		t.Errorf("output does not name the failing check:\n%s", out)
	}

	sampleHeader := []byte(header(0, sampleSchema) + "\n")
	at := bytes.Index(stored, sampleHeader)
	if at < 0 {
		t.Fatalf("no progol sample stored:\n%s", stored)
	}
	if res, out := run(stored, true); res.Failed != 0 {
		t.Fatalf("untampered definitions fail the traced run:\n%s", out)
	}
	tampered = append(append([]byte(nil), stored[:at+len(sampleHeader)]...), "advisedBy(V0,V1) :- extra(V0).\n"...)
	res, out = run(tampered, true)
	if res.Failed != 1 || !strings.Contains(out, "schema="+sampleSchema+" check=expected") {
		t.Fatalf("tampered progol sample: %d failed, want 1 naming the check:\n%s", res.Failed, out)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"uwcse-direct", "hiv-subsumption", "imdb-subsumption"} {
		w := tiny(t, name)
		a, err := w.setup(datasetSeed(5, 1))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.setup(datasetSeed(5, 1))
		c, _ := w.setup(datasetSeed(6, 1))
		for k := range a.Variants {
			if !a.Variants[k].Instance.Equal(b.Variants[k].Instance) {
				t.Errorf("%s: seed 5 built two different %s instances", name, a.Variants[k].Name)
			}
		}
		if atomsKey(a.Pos) != atomsKey(b.Pos) || atomsKey(a.Neg) != atomsKey(b.Neg) {
			t.Errorf("%s: seed 5 built two different example sets", name)
		}
		if atomsKey(a.Pos) == atomsKey(c.Pos) && a.Variants[0].Instance.Equal(c.Variants[0].Instance) {
			t.Errorf("%s: seeds 5 and 6 built the same inputs", name)
		}
	}
	if datasetSeed(7, 0) != 7 {
		t.Errorf("dataset 0's generator seed is %d, want the workload seed", datasetSeed(7, 0))
	}
	if datasetSeed(7, 1) == datasetSeed(8, 1) || datasetSeed(7, 1) == datasetSeed(7, 2) {
		t.Error("derived dataset seeds collide")
	}
}

func atomsKey(as []logic.Atom) string {
	var b strings.Builder
	for _, a := range as {
		b.WriteString(a.String())
		b.WriteByte(';')
	}
	return b.String()
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7, 2}, 5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its input %v", in)
			}
		}
	}
}

func TestExpectedRoundTrip(t *testing.T) {
	w := workload{name: "w", schemas: []string{"A", "B"}}
	two := logic.MustParseDefinition("t(X) :- r(X,Y), s(Y).\nt(X) :- u(X).")
	defs := [][]*logic.Definition{{two, logic.NewDefinition("t")}, nil, {logic.NewDefinition("t"), two}}
	dir := t.TempDir()
	if err := writeExpected(dir, w, 9, defs, two); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(expectedPath("w", 9))))
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseExpected(b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		header(0, "A"): two.String(), header(0, "B"): "",
		header(2, "A"): "", header(2, "B"): two.String(),
		header(0, sampleSchema): two.String(),
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d blocks, want %d: %q", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("block %q = %q, want %q", k, got[k], v)
		}
	}
}

// TestStoredDefinitionsParse checks every embedded file parses and covers
// every schema of its workload.
func TestStoredDefinitionsParse(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, holdoutSeed} {
			c, err := newChecker(w, seed, expectedDefs)
			if err != nil {
				t.Fatal(err)
			}
			for _, schema := range []string{w.schemas[len(w.schemas)-1], sampleSchema} {
				if _, ok := c.expected[header(0, schema)]; !ok {
					t.Errorf("%s seed %d: no stored definition for dataset 0, schema %s", w.name, seed, schema)
				}
			}
		}
	}
}

func TestEnvironmentGuard(t *testing.T) {
	for _, c := range []struct {
		cpus int
		env  string
		ok   bool
	}{
		{parallelism - 1, "", false},
		{parallelism, "", true},
		{8, "", true},
		{parallelism, strconv.Itoa(parallelism + 1), false},
		{8, "4", true},
		{8, "many", false},
	} {
		if err := checkEnv(c.cpus, c.env); (err == nil) != c.ok {
			t.Errorf("checkEnv(NumCPU=%d, GOMAXPROCS=%q) = %v, want ok=%v", c.cpus, c.env, err, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 50, end: 60},
		{name: "c", parent: 1, start: 20, end: 25},
	}}
	want := []time.Duration{60, 25, 10, 5}
	for i, got := range r.selfTimes() {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", r.spans[i].name, got, want[i])
		}
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := r.writeChromeTrace(path, []string{"setup"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[4].Args["parent"] != float64(1) {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
}
