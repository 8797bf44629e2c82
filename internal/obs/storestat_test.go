package obs

import (
	"strings"
	"testing"
)

func TestStoreStatsInReports(t *testing.T) {
	reg := NewRegistry()
	if r := reg.Snapshot(); r.Store != nil {
		t.Fatalf("fresh snapshot has store stats: %v", r.Store)
	}
	reg.AddStore([]string{"publication", "student", "untouched"}, []StoreStat{
		{Lookups: 10, TuplesScanned: 42, IndexHits: 9, INDExpansions: 3},
		{Lookups: 2, TuplesScanned: 5},
		{},
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

	// Later publishes add relation by relation; a snapshot is a copy.
	r.Store["student"] = StoreStat{Lookups: 100}
	reg.AddStore([]string{"student", "course"}, []StoreStat{{Lookups: 1}, {IndexHits: 4}})
	want := map[string]StoreStat{
		"publication": {Lookups: 10, TuplesScanned: 42, IndexHits: 9, INDExpansions: 3},
		"student":     {Lookups: 3, TuplesScanned: 5},
		"course":      {IndexHits: 4},
	}
	got := reg.Snapshot().Store
	if len(got) != len(want) {
		t.Fatalf("after a second publish: got %v, want %v", got, want)
	}
	for rel, s := range want {
		if got[rel] != s {
			t.Errorf("relation %s: got %+v, want %+v", rel, got[rel], s)
		}
	}
}
