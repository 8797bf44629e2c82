package castor

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// TestObservationDoesNotChangeLearning: the nop run (nil Obs) and a fully
// live run (JSONL span trace + registry) must learn the identical
// definition — instrumentation must never influence search.
func TestObservationDoesNotChangeLearning(t *testing.T) {
	learn := func(run *obs.Run) string {
		w := testfix.NewWorld(8)
		prob := w.ProblemOriginal()
		params := ilp.Defaults()
		params.Obs = run
		def, err := New().Learn(prob, params)
		if err != nil {
			t.Fatal(err)
		}
		return def.String()
	}

	plain := learn(nil)

	var trace bytes.Buffer
	sink := obs.NewJSONLSink(&trace)
	reg := obs.NewRegistry()
	observed := learn(obs.NewRun(sink, reg))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if plain != observed {
		t.Errorf("instrumentation changed the learned definition:\nnop:  %s\nlive: %s", plain, observed)
	}

	// The live run must actually have observed the §7.5 machinery.
	for _, c := range []obs.Counter{obs.CCoverageTests, obs.CBottomClauses, obs.CTuplesScanned, obs.CPlanCompiles} {
		if reg.Get(c) == 0 {
			t.Errorf("counter %s stayed zero over a full Castor run", c)
		}
	}
	if reg.SpanTime("beam_round") <= 0 || reg.SpanTime("coverage_batch") <= 0 {
		t.Error("span timings stayed zero over a full Castor run")
	}

	// And the trace must be line-parseable with the core span kinds, each
	// carrying the fields that narrate the learn.
	fields := map[string]map[string]bool{} // span kind → field keys seen
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("trace line %q does not parse: %v", sc.Text(), err)
		}
		name, _ := obj["span"].(string)
		if name == "" {
			t.Fatalf("trace line %q has no span name", sc.Text())
		}
		if fields[name] == nil {
			fields[name] = map[string]bool{}
		}
		for k := range obj {
			fields[name][k] = true
		}
	}
	for kind, field := range map[string]string{
		"learn": "learner", "covering_iteration": "clause", "bottom_clause": "try",
		"beam_round": "literals", "coverage_batch": "covered",
	} {
		if !fields[kind][field] {
			t.Errorf("trace has no %q span with field %q (keys: %v)", kind, field, fields[kind])
		}
	}
}

// TestRuntimeHealthStackDoesNotChangeLearning: the full runtime-health
// stack — flight recorder, stall watchdog, resource sampler, latency
// histograms — must leave the learned definition byte-identical to an
// unobserved run, while actually populating its distributions and gauges.
func TestRuntimeHealthStackDoesNotChangeLearning(t *testing.T) {
	learn := func(run *obs.Run) string {
		w := testfix.NewWorld(8)
		prob := w.ProblemOriginal()
		params := ilp.Defaults()
		// Subsumption-mode coverage, so saturations are built and probed
		// inside the coverage batches the histograms time.
		params.CoverageMode = ilp.CoverageSubsumption
		params.Obs = run
		def, err := New().Learn(prob, params)
		if err != nil {
			t.Fatal(err)
		}
		return def.String()
	}

	plain := learn(nil)

	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(4096)
	run := obs.NewRun(nil, reg).WithFlightRecorder(fr)
	wd := obs.StartWatchdog(run, 20*time.Millisecond, nil)
	smp := obs.StartSampler(run, 5*time.Millisecond)
	observed := learn(run)
	smp.Stop()
	wd.Stop()

	if plain != observed {
		t.Errorf("runtime-health stack changed the learned definition:\noff: %s\non:  %s", plain, observed)
	}

	rep := reg.Snapshot()
	for _, name := range []string{"span_coverage_batch", "span_bottom_clause"} {
		hs, ok := rep.Histograms[name]
		if !ok || hs.Count == 0 {
			t.Errorf("histogram %s empty over a full Castor run (report: %v)", name, rep.Histograms)
			continue
		}
		if hs.P50 <= 0 || hs.P99 < hs.P50 {
			t.Errorf("histogram %s percentiles inconsistent: %+v", name, hs)
		}
	}
	for _, g := range []string{obs.GRSSBytes, obs.GRSSPeakBytes, obs.GSamples} {
		if rep.Gauges[g] <= 0 {
			t.Errorf("gauge %s = %g, want > 0", g, rep.Gauges[g])
		}
	}
	if len(fr.Snapshot()) == 0 {
		t.Error("flight recorder stayed empty over a full Castor run")
	}
}

// TestTelemetryStackDoesNotChangeLearning: the telemetry stack — the
// embedded metric timeline, pool utilization accounting (explicit
// multi-worker parallelism so the shard pool actually engages), the
// runtime/metrics bridge fed by the sampler, and the -v text span sink —
// must leave the learned definition byte-identical to an unobserved
// serial-friendly run, in both coverage modes.
func TestTelemetryStackDoesNotChangeLearning(t *testing.T) {
	for _, mode := range []struct {
		name string
		m    ilp.CoverageMode
	}{{"db", ilp.CoverageDB}, {"subsumption", ilp.CoverageSubsumption}} {
		t.Run(mode.name, func(t *testing.T) {
			learn := func(run *obs.Run) string {
				w := testfix.NewWorld(8)
				prob := w.ProblemOriginal()
				params := ilp.Defaults()
				params.CoverageMode = mode.m
				params.Parallelism = 4 // force the pooled scoring path
				params.Obs = run
				def, err := New().Learn(prob, params)
				if err != nil {
					t.Fatal(err)
				}
				return def.String()
			}

			plain := learn(nil)

			reg := obs.NewRegistry()
			var text bytes.Buffer
			run := obs.NewRun(obs.NewTextSink(&text), reg)
			tl := obs.StartTimeline(run, time.Millisecond)
			observed := learn(run)
			tl.Stop()

			if plain != observed {
				t.Errorf("telemetry stack changed the learned definition:\noff: %s\non:  %s", plain, observed)
			}

			// The stack must actually have measured the run it rode along on.
			if reg.Get(obs.CPoolRounds) == 0 {
				t.Error("pool utilization never recorded a round at Parallelism=4")
			}
			if r := reg.Gauge(obs.GPoolBusyRatio); r <= 0 || r > 1 {
				t.Errorf("pool_busy_ratio = %g, want in (0, 1]", r)
			}
			if reg.Gauge(obs.GGomaxprocs) <= 0 {
				t.Error("runtime bridge never sampled gomaxprocs")
			}
			sum := tl.Summary()
			if sum == nil || sum.Ticks < 2 {
				t.Fatalf("timeline summary = %+v, want >= 2 ticks", sum)
			}
			if st, ok := sum.Series[obs.GPoolBusyRatio]; !ok || st.Count == 0 {
				t.Errorf("timeline has no %s samples (series: %d)", obs.GPoolBusyRatio, len(sum.Series))
			}
			// The text sink narrates the learner goroutine only.
			if out := text.String(); !strings.Contains(out, "msg=learn ") || strings.Contains(out, "shard_") {
				t.Errorf("text span log lacks the learn line or prints worker spans:\n%s", out)
			}
		})
	}
}

// TestProvenanceDoesNotChangeLearning: recording the full search graph must
// leave the learned definition byte-identical, and the graph must contain a
// lineage path from a seed bottom clause to every clause of the final
// definition.
func TestProvenanceDoesNotChangeLearning(t *testing.T) {
	learn := func(run *obs.Run) *logic.Definition {
		w := testfix.NewWorld(8)
		prob := w.ProblemOriginal()
		params := ilp.Defaults()
		params.Obs = run
		def, err := New().Learn(prob, params)
		if err != nil {
			t.Fatal(err)
		}
		return def
	}

	plain := learn(nil)

	var buf bytes.Buffer
	prov := obs.NewProvenance(&buf, obs.ProvOptions{})
	def := learn(obs.NewRun(nil, obs.NewRegistry()).WithProvenance(prov))
	if err := prov.Close(); err != nil {
		t.Fatal(err)
	}

	if plain.String() != def.String() {
		t.Errorf("provenance recording changed the learned definition:\noff: %s\non:  %s", plain, def)
	}

	// Parse the graph.
	type node struct {
		ID      uint64   `json:"id"`
		Parents []uint64 `json:"parents"`
		Step    string   `json:"step"`
		Clause  string   `json:"clause"`
	}
	nodes := map[uint64]node{}
	selects := map[string]uint64{} // clause → producing node
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			t.Fatalf("provenance line %q does not parse: %v", sc.Text(), err)
		}
		switch kind.Kind {
		case "node":
			var n node
			if err := json.Unmarshal(sc.Bytes(), &n); err != nil {
				t.Fatal(err)
			}
			nodes[n.ID] = n
		case "select":
			var s struct {
				Node   uint64 `json:"node"`
				Clause string `json:"clause"`
			}
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			selects[s.Clause] = s.Node
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(nodes) == 0 {
		t.Fatal("provenance stream has no nodes")
	}

	// Every final clause must resolve through a select record to a node
	// whose ancestor chain reaches a seed bottom clause.
	for _, c := range def.Clauses {
		id, ok := selects[c.String()]
		if !ok || id == 0 {
			t.Errorf("no select record resolves clause %s", c)
			continue
		}
		cur, hops := id, 0
		for {
			n, ok := nodes[cur]
			if !ok {
				t.Errorf("clause %s: lineage hits missing node %d", c, cur)
				break
			}
			if n.Step == obs.StepSeedBottom {
				break // reached the root of this clause's search
			}
			if len(n.Parents) == 0 {
				t.Errorf("clause %s: lineage dead-ends at non-seed node %d (%s)", c, cur, n.Step)
				break
			}
			cur = n.Parents[0]
			if hops++; hops > 10_000 {
				t.Fatalf("clause %s: lineage does not terminate", c)
			}
		}
	}
}

// TestSpanGraphProfilerDoesNotChangeLearning: the critical-path profiler —
// GraphSink capture, worker-span emission in the shard pool, attribution —
// must leave the learned definition byte-identical to an unobserved run in
// both coverage modes, while producing a table whose self-time percentages
// telescope to ~100% of the learn wall clock.
func TestSpanGraphProfilerDoesNotChangeLearning(t *testing.T) {
	for _, mode := range []struct {
		name string
		m    ilp.CoverageMode
	}{{"db", ilp.CoverageDB}, {"subsumption", ilp.CoverageSubsumption}} {
		t.Run(mode.name, func(t *testing.T) {
			learn := func(run *obs.Run) string {
				w := testfix.NewWorld(8)
				prob := w.ProblemOriginal()
				params := ilp.Defaults()
				params.CoverageMode = mode.m
				params.Parallelism = 4 // force pooled rounds into the graph
				params.Obs = run
				def, err := New().Learn(prob, params)
				if err != nil {
					t.Fatal(err)
				}
				return def.String()
			}

			plain := learn(nil)

			reg := obs.NewRegistry()
			graph := obs.NewGraphSink(0)
			observed := learn(obs.NewRun(graph, reg))

			if plain != observed {
				t.Errorf("span-graph profiler changed the learned definition:\noff: %s\non:  %s", plain, observed)
			}

			g := graph.Graph()
			if g.Len() == 0 || g.Dropped != 0 {
				t.Fatalf("graph: %d spans, %d dropped", g.Len(), g.Dropped)
			}
			a := obs.Attribute(g)
			if a.WallNS <= 0 {
				t.Fatalf("attributed wall = %d, want > 0", a.WallNS)
			}
			var sumPct float64
			kinds := map[string]bool{}
			for _, row := range a.Rows {
				sumPct += row.Pct
				kinds[row.Kind] = true
				if row.SelfNS < 0 || row.CritNS < 0 || row.CritNS > row.CumNS {
					t.Errorf("row %+v violates 0 <= crit <= cum", row)
				}
			}
			// The acceptance bound: attribution accounts for the whole run.
			if sumPct < 98 || sumPct > 102 {
				t.Errorf("Σpct = %.2f, want 100 ± 2", sumPct)
			}
			if !kinds["learn"] {
				t.Errorf("no learn row in attribution (kinds: %v)", kinds)
			}
			// Parallelism=4 put pooled rounds in the graph: a shard kind must
			// appear, and the round telemetry must have measured chains.
			var shard bool
			for k := range kinds {
				if strings.HasPrefix(k, "shard_") {
					shard = true
				}
			}
			if !shard {
				t.Errorf("no shard_* kind in attribution (kinds: %v)", kinds)
			}
			if chains := g.CriticalChains(5); len(chains) == 0 {
				t.Error("no critical chains over a parallel run")
			}
			if sr := reg.Gauge(obs.GPoolStraggler); sr < 1 {
				t.Errorf("pool_straggler_ratio = %v, want >= 1", sr)
			}
		})
	}
}
