package datasets

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/relstore"
)

// datasetDigest hashes everything a learn reads from a generated dataset:
// the examples in order, every variant's rows in insertion order, and the
// order in which each variant's instance interned its symbols (symbol ids
// decide the store's index layout and the subsumption engine's id space).
func datasetDigest(d *Dataset) string {
	h := sha256.New()
	for _, e := range d.Pos {
		digestLine(h, "pos", e.String())
	}
	for _, e := range d.Neg {
		digestLine(h, "neg", e.String())
	}
	for _, v := range d.Variants {
		digestLine(h, "variant", v.Name)
		for _, rel := range v.Schema.Relations() {
			digestLine(h, "relation", rel.Name)
			v.Instance.Table(rel.Name).ForEachTuple(func(tp relstore.Tuple) bool {
				digestLine(h, tp...)
				return true
			})
		}
		syms := v.Instance.Symbols()
		for id := 0; id < syms.Len(); id++ {
			digestLine(h, "sym", syms.Name(int32(id)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestLine writes one NUL-separated, newline-terminated record.
func digestLine(h hash.Hash, parts ...string) {
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	h.Write([]byte{'\n'})
}

// goldenDigests pins the generators' output byte for byte: examples,
// rows and symbol order of every configuration below. A change that is
// meant to alter generated data updates these; any other change to the
// generators must leave them as they are.
var goldenDigests = map[string]string{
	"uwcse/scale1/seed1":      "2fbe20143e26ca845e675b42ea98bde434b49896cd2113df1c83a2320a104d61",
	"uwcse/scale1/seed2":      "ddb158c97003cd9e7be02e7430ae1b9252f418e2c60e0a31ec941558ae4cf82b",
	"uwcse/scale1/seed3":      "37663eea00dc3da3a7754a87e37abdfaa8379f9e1d5453280e9093ae238c764b",
	"uwcse/scale2/seed1":      "a0deec54e92c78611b5f037f03288b455fbf1df2a45033241905d9916027dc8f",
	"uwcse/scale2/seed2":      "145937162cca6880d3c050f5d14e42dced85053a3c5f1c3ab20c1c8243940dd6",
	"uwcse/scale2/seed3":      "d702e21422ea0099c5b8c47a83f5e1101f1b4db9aeb083d9e5ff56241aed8744",
	"uwcse/scale30/seed1":     "cdef9e15f2d09a86775efc4189c59597ae6e7d1e7a1c21e1488abbc3c25a9a84",
	"uwcse/scale30/seed2":     "c1315743871bc01afc5c99604acd5323e53897836f59a2acfddcb472ff63ffd9",
	"uwcse/scale30/seed3":     "dfae513f9169ac323c7c75ce99744022826722322a601f28f73efe4969c688f4",
	"uwcse/scale30/noise0":    "0de506905a670c79ee1acc4999938b7e003aae5fd142dba5903a11373b8cf5a0",
	"uwcse/scale2/negperpos0": "9bd61a5362d3ba97c415336c883d5aa384517199d0c3db86b66b75d18dd15e09",
	"hiv/scale1/seed1":        "6dd04c9f64cfd857ca8fabd53d658747d57a9c6fdccedb85aca22f743c9e054a",
	"hiv/scale1/seed2":        "204d11dc4ed1af2fb91a5cf18ed888d7f76af78f750ce345f6a62b98d9d6ae25",
	"hiv/scale1/seed3":        "b6eaa219b81929fe0048b0e182ee1d6c658a414b96f2af8e445d94474986d0fa",
	"imdb/scale1/seed1":       "43524b9ca683fe51583febcef488be9ed91169888149f027c12a8b041c066c05",
	"imdb/scale1/seed2":       "f3ed5923e64ccba8ca3a3ae9925fbab5edce04c99718cd3d3d0ec1e0d5792369",
	"imdb/scale1/seed3":       "8d99978619603323eed11b9456f649f68685a4e23adf4cc46c87e8115d5e40b9",
}

func TestGeneratedDatasetDigests(t *testing.T) {
	gens := map[string]func() (*Dataset, error){}
	for seed := int64(1); seed <= 3; seed++ {
		for _, scale := range []float64{1, 2, 30} {
			cfg := DefaultUWCSE()
			cfg.Seed, cfg.Scale = seed, scale
			gens[fmt.Sprintf("uwcse/scale%g/seed%d", scale, seed)] = func() (*Dataset, error) { return GenerateUWCSE(cfg) }
		}
		hiv := DefaultHIV2K4K()
		hiv.Seed, hiv.Scale = seed, 1
		gens[fmt.Sprintf("hiv/scale1/seed%d", seed)] = func() (*Dataset, error) { return GenerateHIV(hiv) }
		imdb := DefaultIMDb()
		imdb.Seed, imdb.Scale = seed, 1
		gens[fmt.Sprintf("imdb/scale1/seed%d", seed)] = func() (*Dataset, error) { return GenerateIMDb(imdb) }
	}
	// At the default scale ⌊0.05·|pos|⌋ is 0, so no label flips: the
	// noise-free and keep-every-negative cases run where flips happen.
	noise0 := DefaultUWCSE()
	noise0.Seed, noise0.Scale, noise0.NoiseFrac = 1, 30, 0
	gens["uwcse/scale30/noise0"] = func() (*Dataset, error) { return GenerateUWCSE(noise0) }
	all := DefaultUWCSE()
	all.Seed, all.Scale, all.NegPerPos = 1, 2, 0
	gens["uwcse/scale2/negperpos0"] = func() (*Dataset, error) { return GenerateUWCSE(all) }

	if len(gens) != len(goldenDigests) {
		t.Fatalf("%d configurations, %d golden digests", len(gens), len(goldenDigests))
	}
	for name, gen := range gens {
		d, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := datasetDigest(d), goldenDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}
