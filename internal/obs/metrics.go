package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the counter and span-aggregate store of one run. Counter
// updates are atomic; a registry may be shared by the coverage worker
// pool. Span aggregates (per-kind wall time, call counts and duration
// histogram) are the one open-ended table and take a mutex — spans end
// orders of magnitude less often than counters increment.
type Registry struct {
	counters [numCounters]atomic.Int64

	spanMu sync.Mutex
	spans  map[string]*spanTotals

	// gaugeMu guards the last-value gauges (Run.Sample and the coverage
	// pool's utilization).
	gaugeMu sync.Mutex
	gauges  map[string]float64

	// storeMu guards store, the per-relation store statistics published
	// into the run (see AddStore).
	storeMu sync.Mutex
	store   map[string]StoreStat
}

// Pool-utilization gauge names. The coverage engine's rounds maintain
// them (see internal/coverage): busy/idle are accumulated
// worker-seconds inside scoring rounds, the ratio is busy/(busy+idle)
// over the whole run, and the imbalance gauge is the worst observed
// max-shard-over-mean-shard wall-time ratio of any round. Per-shard drain
// times are the shard_<label> worker spans' histograms.
const (
	GPoolBusySeconds = "pool_busy_seconds"
	GPoolIdleSeconds = "pool_idle_seconds"
	GPoolBusyRatio   = "pool_busy_ratio"
	GPoolImbalance   = "pool_shard_imbalance_max"
	// Straggler gauges measure per-worker *chains* (all shards one worker
	// drained in a round), not individual shards: a round's wall clock is
	// its slowest chain. GPoolStraggler is Σ slowest-chain / Σ mean-active-
	// chain across rounds (wall-weighted, so long rounds dominate);
	// GPoolStragglerMax is the worst single round. 1.0 is a perfectly
	// balanced pool; N means the slowest worker carried N× the average.
	GPoolStraggler    = "pool_straggler_ratio"
	GPoolStragglerMax = "pool_straggler_ratio_max"
)

// StoreStat is the access statistics of one relation of the relational
// store: how often and how hard its table was probed.
type StoreStat struct {
	// Lookups counts candidate-tuple fetches (one per evaluated literal
	// probe or frontier scan).
	Lookups int64 `json:"lookups"`
	// TuplesScanned counts tuples examined by those fetches.
	TuplesScanned int64 `json:"tuples_scanned"`
	// IndexHits counts lookups answered through a constant hash index.
	IndexHits int64 `json:"index_hits"`
	// INDExpansions counts tuples pulled into bottom clauses by IND
	// chasing (§7.1) with this relation as the chase target.
	INDExpansions int64 `json:"ind_expansions"`
}

// Add returns the element-wise sum of two statistics.
func (s StoreStat) Add(t StoreStat) StoreStat {
	return StoreStat{
		Lookups:       s.Lookups + t.Lookups,
		TuplesScanned: s.TuplesScanned + t.TuplesScanned,
		IndexHits:     s.IndexHits + t.IndexHits,
		INDExpansions: s.INDExpansions + t.INDExpansions,
	}
}

// AddStore adds store access statistics to the registry's relstore
// section, under one lock: stats[k] to relation rels[k]. All-zero entries
// add nothing, so every relation the section lists was probed.
func (g *Registry) AddStore(rels []string, stats []StoreStat) {
	g.storeMu.Lock()
	defer g.storeMu.Unlock()
	for k, s := range stats {
		if s == (StoreStat{}) {
			continue
		}
		if g.store == nil {
			g.store = make(map[string]StoreStat)
		}
		g.store[rels[k]] = g.store[rels[k]].Add(s)
	}
}

// spanTotals accumulates one span kind: totals for the aggregate tables,
// a histogram for the duration distribution.
type spanTotals struct {
	ns    int64
	calls int64
	hist  Histogram
}

// addSpan folds one finished span into the per-kind aggregates and its
// duration histogram.
func (g *Registry) addSpan(name string, d time.Duration) {
	g.spanMu.Lock()
	if g.spans == nil {
		g.spans = make(map[string]*spanTotals)
	}
	t := g.spans[name]
	if t == nil {
		t = &spanTotals{}
		g.spans[name] = t
	}
	t.ns += int64(d)
	t.calls++
	g.spanMu.Unlock()
	t.hist.Observe(d)
}

// SetGauge sets a last-value gauge.
func (g *Registry) SetGauge(name string, v float64) {
	g.gaugeMu.Lock()
	if g.gauges == nil {
		g.gauges = make(map[string]float64)
	}
	g.gauges[name] = v
	g.gaugeMu.Unlock()
}

// MaxGauge raises the gauge to v if v is larger (peak tracking).
func (g *Registry) MaxGauge(name string, v float64) {
	g.gaugeMu.Lock()
	if g.gauges == nil {
		g.gauges = make(map[string]float64)
	}
	if v > g.gauges[name] {
		g.gauges[name] = v
	}
	g.gaugeMu.Unlock()
}

// Gauge returns the gauge's current value (0 when unset).
func (g *Registry) Gauge(name string) float64 {
	g.gaugeMu.Lock()
	defer g.gaugeMu.Unlock()
	return g.gauges[name]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Get returns the counter's current value.
func (g *Registry) Get(c Counter) int64 {
	if c < 0 || c >= numCounters {
		return 0
	}
	return g.counters[c].Load()
}

// SpanStat is the report entry of one span kind.
type SpanStat struct {
	// Seconds is accumulated wall time.
	Seconds float64 `json:"seconds"`
	// Calls is how many spans of the kind ended.
	Calls int64 `json:"calls"`
}

// Report is a point-in-time snapshot of a registry, the "metrics" object
// of a run report. Every known counter is present, zero or not, so
// consumers see a stable schema; spans hold whichever kinds the run
// produced.
type Report struct {
	Counters map[string]int64    `json:"counters"`
	Spans    map[string]SpanStat `json:"spans,omitempty"`
	// Histograms holds the span kinds' duration distributions under
	// span_<name>. Empty histograms are omitted.
	Histograms map[string]HistStat `json:"histograms,omitempty"`
	// Gauges holds last-value measurements: Run.Sample's rss/heap/
	// goroutine readings and peak, and the coverage pool's utilization.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Store holds per-relation store access statistics: what the run's
	// learns asked of each relation they probed (see AddStore).
	Store map[string]StoreStat `json:"relstore,omitempty"`
}

// Snapshot captures the registry's current state.
func (g *Registry) Snapshot() Report {
	r := Report{Counters: make(map[string]int64, numCounters)}
	for c := Counter(0); c < numCounters; c++ {
		r.Counters[c.String()] = g.counters[c].Load()
	}
	g.spanMu.Lock()
	if len(g.spans) > 0 {
		r.Spans = make(map[string]SpanStat, len(g.spans))
		r.Histograms = make(map[string]HistStat, len(g.spans))
		for name, t := range g.spans {
			r.Spans[name] = SpanStat{Seconds: time.Duration(t.ns).Seconds(), Calls: t.calls}
			if t.hist.Count() > 0 {
				r.Histograms["span_"+name] = t.hist.Snapshot()
			}
		}
	}
	g.spanMu.Unlock()
	g.gaugeMu.Lock()
	if len(g.gauges) > 0 {
		r.Gauges = make(map[string]float64, len(g.gauges))
		for name, v := range g.gauges {
			r.Gauges[name] = v
		}
	}
	g.gaugeMu.Unlock()
	g.storeMu.Lock()
	if len(g.store) > 0 {
		r.Store = maps.Clone(g.store)
	}
	g.storeMu.Unlock()
	return r
}

// WriteSummary renders the report as the end-of-run text table: span
// kinds with their wall time and call counts, latency percentiles,
// gauges, store statistics, then nonzero counters. Rows are sorted by
// name for stable output.
func (r Report) WriteSummary(w io.Writer) {
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "%-28s %12s %10s\n", "span", "seconds", "calls")
		for _, n := range sortedKeys(r.Spans) {
			if s := r.Spans[n]; s.Calls != 0 {
				fmt.Fprintf(w, "%-28s %12.3f %10d\n", n, s.Seconds, s.Calls)
			}
		}
	}
	if len(r.Histograms) > 0 {
		fmt.Fprintf(w, "%-28s %10s %10s %10s %10s\n", "latency", "count", "p50", "p95", "p99")
		for _, n := range sortedKeys(r.Histograms) {
			if h := r.Histograms[n]; h.Count != 0 {
				fmt.Fprintf(w, "%-28s %10d %10s %10s %10s\n", n, h.Count,
					fmtSeconds(h.P50), fmtSeconds(h.P95), fmtSeconds(h.P99))
			}
		}
	}
	if len(r.Gauges) > 0 {
		fmt.Fprintf(w, "%-28s %12s\n", "gauge", "value")
		for _, n := range sortedKeys(r.Gauges) {
			fmt.Fprintf(w, "%-28s %12.0f\n", n, r.Gauges[n])
		}
	}
	if len(r.Store) > 0 {
		fmt.Fprintf(w, "%-28s %12s %14s %12s %14s\n", "relation", "lookups", "tuples_scanned", "index_hits", "ind_expansions")
		for _, n := range sortedKeys(r.Store) {
			s := r.Store[n]
			fmt.Fprintf(w, "%-28s %12d %14d %12d %14d\n", n, s.Lookups, s.TuplesScanned, s.IndexHits, s.INDExpansions)
		}
	}
	fmt.Fprintf(w, "%-28s %12s\n", "counter", "value")
	for _, n := range sortedKeys(r.Counters) {
		if v := r.Counters[n]; v != 0 {
			fmt.Fprintf(w, "%-28s %12d\n", n, v)
		}
	}
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtSeconds renders a duration-in-seconds compactly for the summary
// table (µs/ms/s picked by magnitude).
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// FlatMetrics flattens the report into one name → value table — the
// namespace cmd/obsreport diffs and gates on: counters keep their names,
// spans become span_<name>_seconds/span_<name>_calls, histograms
// hist_<name>_{p50,p95,p99,count} (span kinds as hist_span_<name>_*),
// gauges keep their names.
func (r Report) FlatMetrics() map[string]float64 {
	out, _ := r.FlatMetricsWithFamilies()
	return out
}

// Metric family names, as reported by FlatMetricsWithFamilies. A flat
// metric that changes family between two reports (a counter renamed into
// a histogram, say) is a schema mismatch the report differ must refuse
// to silently compare.
const (
	FamCounter   = "counter"
	FamSpan      = "span"
	FamHistogram = "histogram"
	FamGauge     = "gauge"
	FamStore     = "relstore"
)

// FlatMetricsWithFamilies is FlatMetrics also reporting which family
// (counter, span, histogram, gauge, relstore) each flattened metric came
// from.
func (r Report) FlatMetricsWithFamilies() (map[string]float64, map[string]string) {
	out := make(map[string]float64, len(r.Counters)+2*len(r.Spans))
	fam := make(map[string]string, len(out))
	put := func(name, family string, v float64) {
		out[name] = v
		fam[name] = family
	}
	for n, v := range r.Counters {
		put(n, FamCounter, float64(v))
	}
	for n, s := range r.Spans {
		put("span_"+n+"_seconds", FamSpan, s.Seconds)
		put("span_"+n+"_calls", FamSpan, float64(s.Calls))
	}
	for n, h := range r.Histograms {
		put("hist_"+n+"_p50", FamHistogram, h.P50)
		put("hist_"+n+"_p95", FamHistogram, h.P95)
		put("hist_"+n+"_p99", FamHistogram, h.P99)
		put("hist_"+n+"_count", FamHistogram, float64(h.Count))
	}
	for n, v := range r.Gauges {
		put(n, FamGauge, v)
	}
	var total StoreStat
	for rel, s := range r.Store {
		put("relstore_"+rel+"_lookups", FamStore, float64(s.Lookups))
		put("relstore_"+rel+"_tuples_scanned", FamStore, float64(s.TuplesScanned))
		put("relstore_"+rel+"_index_hits", FamStore, float64(s.IndexHits))
		put("relstore_"+rel+"_ind_expansions", FamStore, float64(s.INDExpansions))
		total = total.Add(s)
	}
	if len(r.Store) > 0 {
		put("relstore_lookups", FamStore, float64(total.Lookups))
		put("relstore_tuples_scanned", FamStore, float64(total.TuplesScanned))
		put("relstore_index_hits", FamStore, float64(total.IndexHits))
		put("relstore_ind_expansions", FamStore, float64(total.INDExpansions))
	}
	return out, fam
}
