package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// RunReport is the machine-diffable record one run writes with -report:
// what ran (tool, dataset, learner, parameters), how long it took, every
// counter and timer the registry accumulated, and what came out (learned
// definition size and quality). cmd/obsreport diffs two of these and gates
// on regressions.
type RunReport struct {
	// Tool is the producing binary ("castor", "experiments").
	Tool string `json:"tool"`
	// When is the report's creation time.
	When time.Time `json:"when"`
	// Dataset, Variant and Target identify the learning problem; Learner
	// names the algorithm. Any may be empty when not applicable.
	Dataset string `json:"dataset,omitempty"`
	Variant string `json:"variant,omitempty"`
	Learner string `json:"learner,omitempty"`
	Target  string `json:"target,omitempty"`
	// Params are the learner parameters the run used, as flat name→value
	// pairs (clause length, beam width, sample size, worker count, …).
	Params map[string]any `json:"params,omitempty"`
	// Env records the reproducibility context the run executed under.
	Env *RunEnv `json:"env,omitempty"`
	// ElapsedSeconds is the end-to-end wall time of the run.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Metrics is the registry snapshot: counters, span aggregates and
	// histograms, gauges, store statistics.
	Metrics Report `json:"metrics"`
	// Definition summarizes the learned theory, when the tool learned one.
	Definition *DefinitionStats `json:"definition,omitempty"`
}

// RunEnv is the reproducibility context of one run: enough to rerun the
// same binary configuration and attribute a metric shift to code versus
// machine shape.
type RunEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GitCommit is the vcs.revision baked into the binary's build info;
	// empty for builds outside a checkout (go test binaries, go run).
	GitCommit string `json:"git_commit,omitempty"`
	// Seed is the run's RNG seed.
	Seed int64 `json:"seed"`
}

// CaptureEnv snapshots the current process's reproducibility context.
func CaptureEnv(seed int64) *RunEnv {
	env := &RunEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.GitCommit = s.Value
			}
		}
	}
	return env
}

// DefinitionStats summarizes a learned definition and its evaluation.
type DefinitionStats struct {
	Clauses   int     `json:"clauses"`
	Literals  int     `json:"literals"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path, creating or truncating it.
func (r *RunReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadRunReport reads a report written by WriteJSON.
func LoadRunReport(path string) (*RunReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RunReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// MetricDelta is one row of a report diff.
type MetricDelta struct {
	Name string
	Old  float64
	New  float64
	// Ratio is New/Old; +Inf when Old is zero and New is not, 1 when both
	// are zero.
	Ratio float64
	// InOld and InNew report which reports actually carried the metric —
	// a metric absent from one side reads as 0, which gates must tell
	// apart from a real zero.
	InOld bool
	InNew bool
	// FamilyOld and FamilyNew name the metric family (Fam* constants) the
	// value came from in each report. When both sides carry the metric but
	// the families differ — a name that was a counter in one report and a
	// histogram percentile in the other — the values are not comparable and
	// gates must treat the delta as a schema mismatch, not a regression.
	FamilyOld string
	FamilyNew string
}

// FamilyMismatch reports whether the metric exists in both reports under
// different families, making its values incomparable.
func (d MetricDelta) FamilyMismatch() bool {
	return d.InOld && d.InNew && d.FamilyOld != d.FamilyNew
}

// DiffRunReports flattens both reports' metrics (see Report.FlatMetrics),
// adds elapsed_seconds and the definition stats when present, and returns
// one delta per metric name appearing in either, sorted by name.
func DiffRunReports(old, new *RunReport) []MetricDelta {
	om, of := flatten(old)
	nm, nf := flatten(new)
	names := make(map[string]struct{}, len(om)+len(nm))
	for n := range om {
		names[n] = struct{}{}
	}
	for n := range nm {
		names[n] = struct{}{}
	}
	out := make([]MetricDelta, 0, len(names))
	for n := range names {
		_, inOld := om[n]
		_, inNew := nm[n]
		d := MetricDelta{
			Name: n, Old: om[n], New: nm[n], InOld: inOld, InNew: inNew,
			FamilyOld: of[n], FamilyNew: nf[n],
		}
		switch {
		case d.Old != 0:
			d.Ratio = d.New / d.Old
		case d.New != 0:
			d.Ratio = math.Inf(1)
		default:
			d.Ratio = 1
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// flatten merges a report's metric namespaces into one table, tagging
// each metric with its family.
func flatten(r *RunReport) (map[string]float64, map[string]string) {
	out, fam := r.Metrics.FlatMetricsWithFamilies()
	put := func(name string, v float64) {
		out[name] = v
		fam[name] = "report"
	}
	put("elapsed_seconds", r.ElapsedSeconds)
	if d := r.Definition; d != nil {
		put("definition_clauses", float64(d.Clauses))
		put("definition_literals", float64(d.Literals))
		put("definition_tp", float64(d.TP))
		put("definition_fp", float64(d.FP))
		put("definition_fn", float64(d.FN))
		put("definition_precision", d.Precision)
		put("definition_recall", d.Recall)
		put("definition_f1", d.F1)
	}
	return out, fam
}
