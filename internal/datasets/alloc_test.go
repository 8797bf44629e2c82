package datasets

import (
	"runtime"
	"testing"
)

// TestGenerateUWCSEAllocPin pins what generating UW-CSE at the learn
// benchmark's scale 30 allocates (about 6.2 MB): labels, noise and
// negative sampling run over pair codes, shuffled in place, and example
// atoms are built only for the pairs kept, never for all students ×
// professors (518k pairs); the schema variants are built in the store's
// id space.
func TestGenerateUWCSEAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort TotalAlloc")
	}
	cfg := DefaultUWCSE()
	cfg.Seed, cfg.Scale = 1, 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := GenerateUWCSE(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 7 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("GenerateUWCSE at scale 30 allocated %.1f MB", float64(got)/(1<<20))
	if got >= limit {
		t.Errorf("GenerateUWCSE at scale 30 allocated %.1f MB, want under %d MB", float64(got)/(1<<20), limit>>20)
	}
	runtime.KeepAlive(d)
}
