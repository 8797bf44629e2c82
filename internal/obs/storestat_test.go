package obs

import (
	"strings"
	"testing"
)

func TestStoreStatsInReports(t *testing.T) {
	reg := NewRegistry()
	if r := reg.Snapshot(); r.Store != nil {
		t.Fatalf("sourceless snapshot has store stats: %v", r.Store)
	}
	reg.SetStoreSource(func() map[string]StoreStat {
		return map[string]StoreStat{
			"publication": {Lookups: 10, TuplesScanned: 42, IndexHits: 9, INDExpansions: 3},
			"student":     {Lookups: 2, TuplesScanned: 5},
			"untouched":   {},
		}
	})

	r := reg.Snapshot()
	if len(r.Store) != 2 {
		t.Fatalf("zero-stat relations must be omitted: %v", r.Store)
	}
	if r.Store["publication"].TuplesScanned != 42 {
		t.Errorf("snapshot wrong: %+v", r.Store["publication"])
	}

	flat := r.FlatMetrics()
	for name, want := range map[string]float64{
		"relstore_publication_lookups":        10,
		"relstore_publication_tuples_scanned": 42,
		"relstore_publication_index_hits":     9,
		"relstore_publication_ind_expansions": 3,
		"relstore_student_lookups":            2,
		"relstore_lookups":                    12,
		"relstore_tuples_scanned":             47,
		"relstore_index_hits":                 9,
		"relstore_ind_expansions":             3,
	} {
		if flat[name] != want {
			t.Errorf("FlatMetrics[%s] = %v, want %v", name, flat[name], want)
		}
	}

	var sum strings.Builder
	r.WriteSummary(&sum)
	if !strings.Contains(sum.String(), "publication") {
		t.Errorf("summary missing store table:\n%s", sum.String())
	}

	// Detaching the source detaches the stats.
	reg.SetStoreSource(nil)
	if r := reg.Snapshot(); r.Store != nil {
		t.Errorf("detached source still reports: %v", r.Store)
	}
}

// TestStoreSourcesReplacedInTurnSum: a source registered while another is
// set folds the earlier source's statistics into the registry, so the
// section sums every learn reported into it; the earlier source is not
// read again.
func TestStoreSourcesReplacedInTurnSum(t *testing.T) {
	reg := NewRegistry()
	first := map[string]StoreStat{"student": {Lookups: 2, TuplesScanned: 5}}
	reg.SetStoreSource(func() map[string]StoreStat { return first })
	reg.SetStoreSource(func() map[string]StoreStat {
		return map[string]StoreStat{"student": {Lookups: 1}, "course": {IndexHits: 4}}
	})
	first["student"] = StoreStat{Lookups: 100}
	want := map[string]StoreStat{"student": {Lookups: 3, TuplesScanned: 5}, "course": {IndexHits: 4}}
	for i := 0; i < 2; i++ {
		r := reg.Snapshot()
		if len(r.Store) != len(want) {
			t.Fatalf("snapshot %d: got %v, want %v", i, r.Store, want)
		}
		for rel, s := range want {
			if r.Store[rel] != s {
				t.Errorf("snapshot %d: relation %s: got %+v, want %+v", i, rel, r.Store[rel], s)
			}
		}
	}
	reg.SetStoreSource(nil)
	if r := reg.Snapshot(); r.Store != nil {
		t.Errorf("detached registry still reports: %v", r.Store)
	}
}
