package coverage

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/logic"
	"repro/internal/obs"
)

// goroutineLabels dumps the goroutine profile at debug level 1, which
// includes each goroutine's pprof label set, so tests can assert a
// sirl_phase label is live while a shard function blocks inside it.
func goroutineLabels(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// assertLabeledWhileBlocked runs body (expected to call runShards with a
// shard fn that closes entered then blocks on release) and asserts the
// phase label is visible in the goroutine profile while the fn runs.
// The concurrent goroutine profiler can transiently miss a goroutine that
// parked moments before the capture, so the capture retries while the fn
// stays blocked — the property under test (label present whenever the fn
// is on-CPU or parked inside it) is unaffected by which capture sees it.
func assertLabeledWhileBlocked(t *testing.T, phase string, body func(entered chan<- struct{}, release <-chan struct{})) {
	t.Helper()
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		body(entered, release)
	}()
	<-entered
	var prof string
	for try := 0; try < 50; try++ {
		prof = goroutineLabels(t)
		if strings.Contains(prof, "sirl_phase") && strings.Contains(prof, phase) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if !strings.Contains(prof, "sirl_phase") || !strings.Contains(prof, phase) {
		t.Errorf("no sirl_phase=%q label in goroutine profile while shard fn ran:\n%s", phase, prof)
	}
}

// The inline path (one worker) must carry the same pprof phase label as
// posted rounds, so single-worker batches attribute correctly in CPU
// profiles.
func TestRunShardsLabelsInlinePath(t *testing.T) {
	assertLabeledWhileBlocked(t, "test_inline_phase", func(entered chan<- struct{}, release <-chan struct{}) {
		first := true
		runShards(nil, nil, 1, "test_inline_phase", []shard{{0, 1}}, func(sh shard) {
			if first {
				first = false
				close(entered)
				<-release
			}
		})
	})
}

// A single-shard round with workers to spare also runs inline, under the
// round's label, so both paths always agree.
func TestRunShardsLabelsSingleShardOnPool(t *testing.T) {
	assertLabeledWhileBlocked(t, "test_pool_phase", func(entered chan<- struct{}, release <-chan struct{}) {
		first := true
		runShards(nil, nil, 2, "test_pool_phase", []shard{{0, 1}}, func(sh shard) {
			if first {
				first = false
				close(entered)
				<-release
			}
		})
	})
}

func TestRunShardsLabelsPooledWorkers(t *testing.T) {
	assertLabeledWhileBlocked(t, "test_worker_phase", func(entered chan<- struct{}, release <-chan struct{}) {
		var once bool
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		runShards(nil, nil, 2, "test_worker_phase", []shard{{0, 1}, {1, 2}, {2, 3}}, func(sh shard) {
			<-mu
			first := !once
			once = true
			mu <- struct{}{}
			if first {
				close(entered)
				<-release
			}
		})
	})
}

func TestPlanShardsUniform(t *testing.T) {
	// The plan must not collapse, and with want ≥ n it degenerates to
	// singletons.
	shards := planShards(10, 4)
	if len(shards) != 4 || shards[len(shards)-1].hi != 10 {
		t.Fatalf("n=10 want=4: bad plan %v", shards)
	}
	shards = planShards(5, 9)
	if len(shards) != 5 {
		t.Fatalf("want > n: %d shards, want 5 singletons: %v", len(shards), shards)
	}
	for i, sh := range shards {
		if sh.lo != i || sh.hi != i+1 {
			t.Fatalf("shard %d = %+v, want singleton", i, sh)
		}
	}
}

func TestPlanShardsFewerItemsThanShards(t *testing.T) {
	shards := planShards(3, 100)
	if len(shards) != 3 {
		t.Fatalf("n=3 want=100: %d shards: %v", len(shards), shards)
	}
}

// TestPlanShardsBalanceBound property-checks the greedy cut's guarantee:
// every shard holds at most n/want + 1 items (non-final shards overshoot
// their running target by at most one item; the final shard gets at most
// the average that remains).
func TestPlanShardsBalanceBound(t *testing.T) {
	prop := func(rawN uint16, rawWant uint8) bool {
		n := int(rawN % 2048)
		want := int(rawWant)%32 + 1
		shards := planShards(n, want)
		if n == 0 {
			return shards == nil
		}
		// Exact cover, in order.
		next := 0
		for _, sh := range shards {
			if sh.lo != next || sh.hi <= sh.lo {
				return false
			}
			next = sh.hi
		}
		if next != n || len(shards) > want || len(shards) > n {
			return false
		}
		if want > n {
			want = n
		}
		for _, sh := range shards {
			if sh.hi-sh.lo > n/want+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolUtilizationAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	run := obs.NewRun(nil, reg)
	exs := exampleAtoms(200)
	var f fakeCover
	en := NewEngine(perPair(f.fn), newNop, 4, nil, run)
	c := logic.MustParseClause("h(X) :- p(X).")
	en.CoveredSet(c, exs, nil)

	if rounds := reg.Get(obs.CPoolRounds); rounds < 1 {
		t.Fatalf("pool_rounds = %d, want >= 1", rounds)
	}
	if shards := reg.Get(obs.CPoolShards); shards < 2 {
		t.Errorf("pool_shards_drained = %d, want >= 2", shards)
	}
	if tasks := reg.Get(obs.CPoolTasks); tasks != 200 {
		t.Errorf("pool_tasks = %d, want 200 (every example exactly once)", tasks)
	}
	busy := reg.Gauge(obs.GPoolBusySeconds)
	idle := reg.Gauge(obs.GPoolIdleSeconds)
	ratio := reg.Gauge(obs.GPoolBusyRatio)
	if busy <= 0 {
		t.Errorf("pool_busy_seconds = %v, want > 0", busy)
	}
	if idle < 0 {
		t.Errorf("pool_idle_seconds = %v, want >= 0", idle)
	}
	if ratio <= 0 || ratio > 1 {
		t.Errorf("pool_busy_ratio = %v, want in (0, 1]", ratio)
	}
	if got := busy / (busy + idle); ratio < got-1e-9 || ratio > got+1e-9 {
		t.Errorf("ratio %v != busy/(busy+idle) %v", ratio, got)
	}
	// Every drained shard is one worker span, so the shard span kind's
	// duration histogram is the per-shard drain-time distribution.
	if h := reg.Snapshot().Histograms["span_shard_coverage_testing"]; h.Count != reg.Get(obs.CPoolShards) {
		t.Errorf("shard span count %d != shards drained %d", h.Count, reg.Get(obs.CPoolShards))
	}
	if imb := reg.Gauge(obs.GPoolImbalance); imb < 1 {
		t.Errorf("pool_shard_imbalance_max = %v, want >= 1 (max/mean can't be below 1)", imb)
	}
}

func TestPoolUtilizationUnobservedIsFree(t *testing.T) {
	// Without a registry the accumulator is nil and rounds take zero clock
	// reads; results must be identical either way.
	exs := exampleAtoms(120)
	var f1, f2 fakeCover
	c := logic.MustParseClause("h(X) :- p(X).")
	obs1 := NewEngine(perPair(f1.fn), newNop, 4, nil, obs.NewRun(nil, obs.NewRegistry())).CoveredSet(c, exs, nil)
	obs0 := NewEngine(perPair(f2.fn), newNop, 4, nil, nil).CoveredSet(c, exs, nil)
	if !obs1.Equal(obs0) {
		t.Fatal("utilization accounting changed coverage results")
	}
	en := NewEngine(perPair(f2.fn), newNop, 4, nil, nil)
	if en.util != nil {
		t.Fatal("unobserved engine grew a poolUtil")
	}
}

// Pruning-efficiency conservation: every (candidate, negative) scan item
// of a pruned candidate is either skipped by the bound or wasted; scans
// of surviving candidates count as neither.
func TestPruneCountersConservation(t *testing.T) {
	reg := obs.NewRegistry()
	run := obs.NewRun(nil, reg)
	pos := exampleAtoms(8)
	neg := exampleAtoms(40)
	// Candidate k covers all positives and the negatives below 5k, so
	// later candidates are strictly worse and the keep-1 bound prunes them.
	cover := func(c *logic.Clause, e logic.Atom) bool {
		i := atomIndex(e)
		return i < 8 || (i-100) < 5*len(c.Body)
	}
	cands := make([]Candidate, 4)
	for k := range cands {
		body := make([]logic.Atom, k)
		for j := range body {
			body[j] = logic.GroundAtom("b")
		}
		cands[k] = Candidate{Clause: &logic.Clause{Head: logic.GroundAtom("h"), Body: body}}
	}
	// Distinct negative atom names so atomIndex can tell pos from neg.
	for i := range neg {
		neg[i] = logic.GroundAtom("n", neg[i].Args[0].Name)
	}
	en := NewEngine(perPair(cover), newNop, 2, nil, run)
	scores := en.ScoreBatch(cands, pos, neg, NoBound, 1)

	var prunedItems int64
	for _, s := range scores {
		if s.Pruned {
			prunedItems += int64(len(neg))
		}
	}
	skipped := reg.Get(obs.CPruneSkippedPairs)
	wasted := reg.Get(obs.CPruneWastedPairs)
	if reg.Get(obs.CCandidatesPruned) == 0 {
		t.Fatal("test premise broken: nothing pruned")
	}
	if skipped+wasted != prunedItems {
		t.Errorf("skipped %d + wasted %d = %d, want %d (every pruned candidate's scan items, exactly)",
			skipped, wasted, skipped+wasted, prunedItems)
	}
	if skipped == 0 {
		t.Error("bound never skipped a pair, expected early aborts")
	}
}

// atomIndex decodes the example index from a fakeCover-style atom; "n"
// atoms (negatives) offset by 100 so cover functions can discriminate.
func atomIndex(e logic.Atom) int {
	i := 0
	for _, ch := range e.Args[0].Name {
		if ch >= '0' && ch <= '9' {
			i = i*10 + int(ch-'0')
		}
	}
	if e.Pred == "n" {
		return i + 100
	}
	return i
}

// shardSpan is one finished span as the test sink saw it.
type shardSpan struct {
	name          string
	parent, round uint64
	worker        int
	dur           time.Duration
}

// shardSpans is a SpanSink local to these tests that keeps every finished
// span.
type shardSpans struct {
	mu    sync.Mutex
	spans []shardSpan
}

func (c *shardSpans) SpanStart(*obs.Span) {}

func (c *shardSpans) SpanEnd(s *obs.Span, d time.Duration) {
	c.mu.Lock()
	c.spans = append(c.spans, shardSpan{name: s.Name, parent: s.ParentID, round: s.Round, worker: s.Worker, dur: d})
	c.mu.Unlock()
}

func (c *shardSpans) records() []shardSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]shardSpan(nil), c.spans...)
}

// TestRunShardsEmitsWorkerSpans: with a spanning run, every shard — posted
// to the helpers or inline — emits a worker span tagged with the pool
// round and parented under the span that submitted the round, so a trace
// sees both code paths identically.
func TestRunShardsEmitsWorkerSpans(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &shardSpans{}
	run := obs.NewRun(sink, reg)
	parent := run.StartSpan("learn")

	util := newPoolUtil(run)
	runShards(run, util, 2, "test_span_phase", planShards(40, 8), func(sh shard) {
		time.Sleep(100 * time.Microsecond)
	})
	pooled := sink.records()
	if len(pooled) < 2 {
		t.Fatalf("pooled path emitted %d spans, want >= 2", len(pooled))
	}
	round := pooled[0].round
	for _, rec := range pooled {
		if rec.name != "shard_test_span_phase" {
			t.Errorf("span name = %q, want shard_test_span_phase (the round's label)", rec.name)
		}
		if rec.round != round || rec.round == 0 {
			t.Errorf("span round = %d, want uniform non-zero %d", rec.round, round)
		}
		if rec.parent != parent.ID {
			t.Errorf("span parent = %d, want submitting span %d", rec.parent, parent.ID)
		}
		if rec.worker < 0 || rec.worker >= 2 {
			t.Errorf("span worker = %d, want 0 or 1", rec.worker)
		}
		if rec.dur <= 0 {
			t.Errorf("span dur = %v, want > 0", rec.dur)
		}
	}
	if sr := reg.Gauge(obs.GPoolStraggler); sr < 1 {
		t.Errorf("pool_straggler_ratio = %v, want >= 1 (max chain can't be below mean)", sr)
	}
	if srm := reg.Gauge(obs.GPoolStragglerMax); srm < reg.Gauge(obs.GPoolStraggler)-1e-9 {
		t.Errorf("pool_straggler_ratio_max %v < wall-weighted ratio %v", srm, reg.Gauge(obs.GPoolStraggler))
	}

	// Inline path (one worker): same tags, worker 0, a fresh round per call.
	runShards(run, nil, 1, "inline_phase", planShards(4, 2), func(sh shard) {})
	inline := sink.records()[len(pooled):]
	if len(inline) == 0 {
		t.Fatal("inline path emitted no spans")
	}
	for _, rec := range inline {
		if rec.name != "shard_inline_phase" || rec.worker != 0 {
			t.Errorf("inline span = %+v, want shard_inline_phase on worker 0", rec)
		}
		if rec.round != inline[0].round || rec.round == round || rec.round == 0 {
			t.Errorf("inline round = %d, want uniform, fresh, non-zero", rec.round)
		}
		if rec.parent != parent.ID {
			t.Errorf("inline parent = %d, want %d", rec.parent, parent.ID)
		}
	}
	parent.End()

	// Every shard span is a child of learn, grouped into exactly two
	// rounds.
	rounds := map[uint64]bool{}
	for _, rec := range sink.records() {
		if rec.name != "learn" {
			rounds[rec.round] = true
		}
	}
	if len(rounds) != 2 {
		t.Errorf("shard spans fall into %d rounds, want 2 (one per runShards call)", len(rounds))
	}
}

// Unobserved runs must emit no spans and take no clock reads: every
// shard still runs, exactly once.
func TestRunShardsUnobservedEmitsNothing(t *testing.T) {
	var items atomic.Int64
	runShards(nil, nil, 2, "x", planShards(10, 4), func(sh shard) { items.Add(int64(sh.hi - sh.lo)) })
	if got := items.Load(); got != 10 {
		t.Errorf("unobserved run drained %d items, want 10", got)
	}
}
