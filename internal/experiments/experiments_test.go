package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/castor"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.12, Folds: 2, Parallelism: 2, Seed: 3}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Out = &buf
	stats, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 HIV variants ×2 configs + 4 UW-CSE + 3 IMDb = 13 rows.
	if len(stats) != 13 {
		t.Fatalf("rows = %d", len(stats))
	}
	for _, s := range stats {
		if s.Relations == 0 || s.Tuples == 0 || s.Pos == 0 {
			t.Errorf("degenerate row %+v", s)
		}
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("missing header")
	}
}

func TestTable10UWCSE(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Scale = 0.4
	cfg.Out = &buf
	rows, err := Table10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Castor must be schema independent: identical P and R across the four
	// schemas.
	var castorRows []Row
	for _, r := range rows {
		if r.Algorithm == "Castor" {
			castorRows = append(castorRows, r)
		}
	}
	if len(castorRows) != 4 {
		t.Fatalf("castor rows = %d", len(castorRows))
	}
	for _, r := range castorRows[1:] {
		if r.Precision != castorRows[0].Precision || r.Recall != castorRows[0].Recall {
			t.Errorf("Castor schema dependent: %+v vs %+v", r, castorRows[0])
		}
	}
	// Castor should be effective (nontrivial recall at small scale).
	if castorRows[0].Recall < 0.6 {
		t.Errorf("Castor recall %.2f too low", castorRows[0].Recall)
	}
	if !strings.Contains(buf.String(), "Table 10") {
		t.Error("missing header")
	}
}

func TestTable11IMDb(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.4
	rows, err := Table11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Castor approaches the paper's P = R = 1 (exact definition exists) and
	// is schema independent: identical quality on every schema.
	var castorRows []Row
	for _, r := range rows {
		if r.Algorithm == "Castor" {
			castorRows = append(castorRows, r)
		}
	}
	if len(castorRows) != 3 {
		t.Fatalf("castor rows = %d", len(castorRows))
	}
	for _, r := range castorRows {
		if r.Precision < 0.95 || r.Recall < 0.8 {
			t.Errorf("Castor on %s: P=%.2f R=%.2f (want ≈1.0)\n%v", r.Variant, r.Precision, r.Recall, r.Learned)
		}
		if r.Precision != castorRows[0].Precision || r.Recall != castorRows[0].Recall {
			t.Errorf("Castor schema dependent on IMDb: %+v vs %+v", r, castorRows[0])
		}
	}
}

func TestTable13StoredProcedures(t *testing.T) {
	cfg := tiny()
	rows, err := Table13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WithSeconds <= 0 || r.WithoutSeconds <= 0 {
			t.Errorf("degenerate timing %+v", r)
		}
	}
}

// TestFigure2Threads pins the default Figure 2 sweep: powers of two up to
// the hardware thread count, plus the count itself.
func TestFigure2Threads(t *testing.T) {
	for n, want := range map[int][]int{1: {1}, 2: {1, 2}, 3: {1, 2, 3}, 6: {1, 2, 4, 6}, 8: {1, 2, 4, 8}} {
		if got := figure2Threads(n); !slices.Equal(got, want) {
			t.Errorf("figure2Threads(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestFigure3QueryCounts(t *testing.T) {
	cfg := tiny()
	rows, err := Figure3(cfg, 4, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 schemas × 2 var counts
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Figure3Row{}
	for _, r := range rows {
		byKey[r.Variant+"/"+itoa(r.NumVars)] = r
		if r.Exact < r.Attempts {
			t.Logf("note: %s #vars=%d learned exactly %d/%d", r.Variant, r.NumVars, r.Exact, r.Attempts)
		}
	}
	// Decomposition direction: Original (most decomposed) needs at least as
	// many MQs as Denormalized-2 (most composed).
	for _, nv := range []int{4, 6} {
		d2 := byKey["Denormalized-2/"+itoa(nv)]
		orig := byKey["Original/"+itoa(nv)]
		if orig.AvgMQs < d2.AvgMQs {
			t.Errorf("#vars=%d: Original MQs %.1f < Denormalized-2 MQs %.1f", nv, orig.AvgMQs, d2.AvgMQs)
		}
		// EQs stay comparable across schemas (within 50%).
		if d2.AvgEQs > 0 && (orig.AvgEQs > d2.AvgEQs*1.5+1) {
			t.Errorf("#vars=%d: EQs diverge: %.1f vs %.1f", nv, orig.AvgEQs, d2.AvgEQs)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestTable9CastorSchemaIndependence runs only the Castor rows of Table 9
// at reduced scale: identical precision/recall across Initial, 4NF-1 and
// 4NF-2 (the full table is exercised by BenchmarkTable9HIV).
func TestTable9CastorSchemaIndependence(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.4
	ds, err := hiv2k4kDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for _, v := range ds.Variants {
		rows = append(rows, runCV(cfg, ds, v.Name, newCastorForTest(), castorParams(), 2))
	}
	for _, r := range rows[1:] {
		if r.Precision != rows[0].Precision || r.Recall != rows[0].Recall {
			t.Errorf("Castor schema dependent on HIV: %s %+v vs %s %+v", r.Variant, r, rows[0].Variant, rows[0])
		}
	}
	if rows[0].Recall < 0.3 || rows[0].Precision < 0.4 {
		t.Errorf("Castor degenerate on HIV: P=%.2f R=%.2f", rows[0].Precision, rows[0].Recall)
	}
}

func newCastorForTest() *castor.Learner { return castor.New() }

func TestAblations(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.2
	rows, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OnSeconds <= 0 || r.OffSeconds <= 0 {
			t.Errorf("degenerate ablation row %+v", r)
		}
	}
	// Toggling the coverage cache or indexes must not change results.
	for _, r := range rows {
		if (r.Ablation == "coverage-cache" || r.Ablation == "hash-indexes") && !r.SameResults {
			t.Errorf("%s changed learned definitions", r.Ablation)
		}
	}
}

// TestCastorSchemaIndependenceAcrossSeeds: the headline property holds on
// randomized worlds, not just one fixture.
func TestCastorSchemaIndependenceAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := Config{Scale: 0.35, Folds: 2, Parallelism: 2, Seed: seed}
		ds, err := uwcseDataset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var first *Row
		for _, v := range ds.Variants {
			r := runCV(cfg, ds, v.Name, newCastorForTest(), uwcseParams(), 2)
			if first == nil {
				first = &r
				continue
			}
			if r.Precision != first.Precision || r.Recall != first.Recall {
				t.Errorf("seed %d: %s P=%.2f R=%.2f vs %s P=%.2f R=%.2f",
					seed, v.Name, r.Precision, r.Recall, first.Variant, first.Precision, first.Recall)
			}
		}
	}
}
