package castor

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
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
	if spans := reg.Snapshot().Spans; spans["beam_round"].Seconds <= 0 || spans["coverage_batch"].Seconds <= 0 {
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
// stack — flight recorder, stall watchdog, latency histograms, the
// run-end resource sample — must leave the learned definition
// byte-identical to an unobserved run, while actually populating its
// distributions and gauges.
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
	fr := obs.NewFlightRecorder(4096, nil)
	run := obs.NewRun(fr, reg)
	wd := obs.StartWatchdog(run, 20*time.Millisecond, nil)
	observed := learn(run)
	wd.Stop()
	run.Sample()

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
	for _, g := range []string{obs.GRSSBytes, obs.GRSSPeakBytes} {
		if rep.Gauges[g] <= 0 {
			t.Errorf("gauge %s = %g, want > 0", g, rep.Gauges[g])
		}
	}
	if len(fr.Snapshot()) == 0 {
		t.Error("flight recorder stayed empty over a full Castor run")
	}
}

// TestTelemetryStackDoesNotChangeLearning: the telemetry stack — pool
// utilization accounting (explicit multi-worker parallelism so the shard
// pool actually engages) and the -v text span sink — must leave the
// learned definition byte-identical to an unobserved run, in both coverage
// modes.
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
			observed := learn(obs.NewRun(obs.NewTextSink(&text), reg))

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

// TestSpanGraphProfilerDoesNotChangeLearning: capturing the span graph —
// learner spans plus the shard pool's worker spans — must leave the
// learned definition byte-identical to an unobserved run in both coverage
// modes, while producing a closed graph: one learn root, every parent
// link resolving to a captured span, and shard_* spans tagged with their
// worker and round.
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
			log := &spanLog{}
			observed := learn(obs.NewRun(log, reg))

			if plain != observed {
				t.Errorf("span-graph capture changed the learned definition:\noff: %s\non:  %s", plain, observed)
			}

			recs := log.records()
			if len(recs) == 0 {
				t.Fatal("no spans captured")
			}
			ids := make(map[uint64]bool, len(recs))
			for _, r := range recs {
				ids[r.ID] = true
			}
			var learns, shards int
			for _, r := range recs {
				if r.ParentID != 0 && !ids[r.ParentID] {
					t.Errorf("span %+v: parent %d was never captured", r, r.ParentID)
				}
				if r.Name == "learn" {
					learns++
					if r.ParentID != 0 {
						t.Errorf("learn span %+v is not a root", r)
					}
				}
				if !strings.HasPrefix(r.Name, "shard_") {
					continue
				}
				shards++
				if r.Worker < 0 || r.Round == 0 || r.ParentID == 0 {
					t.Errorf("shard span %+v lacks its worker, round or parent", r)
				}
			}
			if learns != 1 {
				t.Errorf("captured %d learn spans, want 1", learns)
			}
			// Parallelism=4 put pooled rounds in the graph, and the round
			// telemetry must have measured their balance.
			if shards == 0 {
				t.Error("no shard_* worker spans at Parallelism=4")
			}
			if sr := reg.Gauge(obs.GPoolStraggler); sr < 1 {
				t.Errorf("pool_straggler_ratio = %v, want >= 1", sr)
			}
		})
	}
}

// TestRunReportStoreSectionIsPerLearn: two Parallelism-1 Castor learns on
// one instance, each reporting into its own registry, report equal
// relstore sections: a report holds its own learn's store work, not the
// instance's totals since it was loaded. Two more such learns reporting
// into one registry, as an experiment run does, report the sum of both.
func TestRunReportStoreSectionIsPerLearn(t *testing.T) {
	prob := testfix.NewWorld(8).ProblemOriginal()
	learn := func(reg *obs.Registry) {
		params := ilp.Defaults()
		params.Parallelism = 1
		params.CoverageMode = ilp.CoverageDB
		params.Obs = obs.NewRun(nil, reg)
		if _, err := New().Learn(prob, params); err != nil {
			t.Fatal(err)
		}
	}
	report := func() obs.Report {
		reg := obs.NewRegistry()
		learn(reg)
		return reg.Snapshot()
	}
	first, second := report(), report()
	if len(first.Store) == 0 {
		t.Fatal("the first learn reported no store statistics")
	}
	if len(first.Store) != len(second.Store) {
		t.Fatalf("relstore sections differ:\nfirst  %v\nsecond %v", first.Store, second.Store)
	}
	for rel, s := range first.Store {
		if second.Store[rel] != s {
			t.Errorf("relation %s: first learn reports %+v, second %+v", rel, s, second.Store[rel])
		}
	}
	shared := obs.NewRegistry()
	learn(shared)
	learn(shared)
	both := shared.Snapshot()
	if len(both.Store) != len(first.Store) {
		t.Fatalf("a registry two learns report into holds %v, one learn's %v", both.Store, first.Store)
	}
	for rel, s := range first.Store {
		if both.Store[rel] != s.Add(s) {
			t.Errorf("relation %s: two learns into one registry report %+v, one learn %+v", rel, both.Store[rel], s)
		}
	}
}

// TestRunReportStoreSectionIgnoresLaterLearns: a registry's relstore
// section holds what its own learn asked of the store, however the
// instance is used afterwards. A Castor learn reports into registry A,
// then a second learn on the same instance into registry B; A's section
// must read the same after B's learn as before it, in both coverage modes
// and at Parallelism 1 and 2.
func TestRunReportStoreSectionIgnoresLaterLearns(t *testing.T) {
	modes := []struct {
		name string
		m    ilp.CoverageMode
	}{{"direct", ilp.CoverageDB}, {"subsumption", ilp.CoverageSubsumption}}
	for _, mode := range modes {
		for _, par := range []int{1, 2} {
			t.Run(mode.name+"/par"+strconv.Itoa(par), func(t *testing.T) {
				prob := testfix.NewWorld(8).ProblemOriginal()
				learn := func(reg *obs.Registry) {
					params := ilp.Defaults()
					params.Parallelism = par
					params.CoverageMode = mode.m
					params.Obs = obs.NewRun(nil, reg)
					if _, err := New().Learn(prob, params); err != nil {
						t.Fatal(err)
					}
				}
				a := obs.NewRegistry()
				learn(a)
				before := a.Snapshot().Store
				if len(before) == 0 {
					t.Fatal("the learn reported no store statistics")
				}
				learn(obs.NewRegistry())
				if after := a.Snapshot().Store; !reflect.DeepEqual(after, before) {
					t.Errorf("registry A's relstore section changed with a later learn under registry B:\nbefore %v\nafter  %v", before, after)
				}
			})
		}
	}
}
