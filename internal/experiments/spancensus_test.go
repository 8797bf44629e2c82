package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/castor"
	"repro/internal/foil"
	"repro/internal/golem"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/progol"
	"repro/internal/progolem"
	"repro/internal/testfix"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current learners")

// censusSink records, per span kind on the learner goroutine, how often
// the kind ran and with which field keys. Worker spans (shard_*) stay
// out: their count follows the shard plan, not the learner.
type censusSink struct {
	mu    sync.Mutex
	kinds map[string]map[string]int // kind → ordered field keys → calls
}

func (c *censusSink) SpanStart(*obs.Span) {}

func (c *censusSink) SpanEnd(s *obs.Span, _ time.Duration) {
	if s.Worker >= 0 {
		return
	}
	keys := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		keys[i] = f.Key
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kinds == nil {
		c.kinds = make(map[string]map[string]int)
	}
	if c.kinds[s.Name] == nil {
		c.kinds[s.Name] = make(map[string]int)
	}
	c.kinds[s.Name][strings.Join(keys, ",")]++
}

// calls is the kind's total call count.
func (c *censusSink) calls(kind string) int64 {
	n := 0
	for _, v := range c.kinds[kind] {
		n += v
	}
	return int64(n)
}

// render prints one line per (kind, field-key list), sorted.
func (c *censusSink) render(learner string) []string {
	var out []string
	for kind, shapes := range c.kinds {
		for keys, n := range shapes {
			out = append(out, fmt.Sprintf("%s %s calls=%d fields=[%s]", learner, kind, n, keys))
		}
	}
	sort.Strings(out)
	return out
}

// TestSpanCensus pins which spans every instrumented learner opens on its
// own goroutine, how often, and with which fields, on the small fixed
// UW-CSE world under both schemas at Parallelism 1 (FOIL's 4NF run ends
// on a rejected clause, so both covering outcomes are pinned). The census
// is the contract the learners' instrumentation keeps: a span kind
// appearing, vanishing, changing its call count or its field keys shows
// up as a golden diff. Regenerate after an intentional change with
//
//	go test ./internal/experiments -run SpanCensus -args -update
func TestSpanCensus(t *testing.T) {
	w := testfix.NewWorld(8)
	type cell struct {
		name    string
		learner ilp.Learner
		mode    ilp.CoverageMode
		tune    func(*ilp.Params)
	}
	cells := []cell{
		{"castor-direct", castor.New(), ilp.CoverageDB, nil},
		{"castor-subsumption", castor.New(), ilp.CoverageSubsumption, nil},
		{"golem", golem.New(), ilp.CoverageDB, func(p *ilp.Params) { p.Depth, p.Sample = 2, 3 }},
		{"progolem", progolem.New(), ilp.CoverageDB, nil},
		{"foil", foil.New(), ilp.CoverageDB, nil},
		{"aleph-progol", progol.NewAlephProgol(), ilp.CoverageDB, nil},
	}
	var lines []string
	for _, c := range cells {
		for _, schema := range []string{"original", "4nf"} {
			prob := w.ProblemOriginal()
			if schema == "4nf" {
				prob = w.Problem4NF()
			}
			params := ilp.Defaults()
			params.Parallelism = 1
			params.CoverageMode = c.mode
			if c.tune != nil {
				c.tune(&params)
			}
			lines = append(lines, censusOf(t, c.name+"/"+schema, c.learner, prob, params)...)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "span_census.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -args -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("span census drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// censusOf learns once with a census sink and a registry attached and
// returns the census lines. The registry's span aggregates must agree
// with the sink's count for every kind: reports and gates read them.
func censusOf(t *testing.T, name string, learner ilp.Learner, prob *ilp.Problem, params ilp.Params) []string {
	t.Helper()
	census := &censusSink{}
	reg := obs.NewRegistry()
	params.Obs = obs.NewRun(census, reg)
	if _, err := learner.Learn(prob, params); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if census.calls("learn") != 1 {
		t.Errorf("%s: %d learn spans, want 1", name, census.calls("learn"))
	}
	spans := reg.Snapshot().Spans
	for kind := range census.kinds {
		if got := spans[kind].Calls; got != census.calls(kind) {
			t.Errorf("%s: registry has %d %s spans, the sink saw %d", name, got, kind, census.calls(kind))
		}
	}
	return census.render(name)
}
