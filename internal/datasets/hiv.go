package datasets

import (
	"fmt"
	"strconv"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/transform"
)

// HIV (§9.1.1, Tables 3 and 4): molecular graphs from the NCI AIDS
// antiviral screen, under three schemas:
//
//   - Initial: bonds(bd,atm1,atm2) with one relation per bond-type slot
//     (bType1..3) plus unary element_*/p* atom-property relations;
//   - 4NF-1: bonds composed with its three bond-type relations into
//     bonds(bd,atm1,atm2,t1,t2,t3);
//   - 4NF-2: Initial's bonds decomposed into bSource(bd,atm1) and
//     bTarget(bd,atm2) — the variant on which the paper's top-down
//     learners fail.
//
// The generator emits random molecules and plants hivActive(comp) on a
// bonded element motif (a carbon-nitrogen bond of type t1), so the target
// has a Datalog definition reaching through the bonds relation — exactly
// the structure that breaks over 4NF-2 for bounded top-down search.

// HIVConfig sizes the generator.
type HIVConfig struct {
	Compounds        int
	AtomsPerCompound int // average; actual count varies ±50%
	Elements         int // number of element_* relations
	Properties       int // number of p* property relations
	NegPerPos        int
	NoiseFrac        float64
	Seed             int64
	// Scale multiplies Compounds; 0 or 1 leaves the configured count
	// untouched (the -scale knob of cmd/datagen and cmd/castor).
	Scale float64
	// Only restricts generation to one named variant ("Initial", "4NF-1",
	// "4NF-2"); empty builds all three. At paper scale the transform
	// pipelines deriving the other variants dominate generation time, so
	// large runs generate just the variant they learn on.
	Only string
}

// DefaultHIV2K4K approximates the paper's HIV-2K4K task at laptop scale.
func DefaultHIV2K4K() HIVConfig {
	return HIVConfig{
		Compounds:        300,
		AtomsPerCompound: 8,
		Elements:         5,
		Properties:       4,
		NegPerPos:        2,
		NoiseFrac:        0.03,
		Seed:             11,
	}
}

// DefaultHIVLarge is the scaled-down HIV-Large configuration.
func DefaultHIVLarge() HIVConfig {
	cfg := DefaultHIV2K4K()
	cfg.Compounds = 1200
	cfg.Seed = 13
	return cfg
}

// PaperHIV is the paper-scale preset (§8: ~14M tuples). It scales the
// HIV-2K4K configuration up until the Initial instance holds roughly 14M
// tuples and generates only that variant — deriving 4NF-1/4NF-2 through
// the transform pipelines is pointless at a scale where only one variant
// is learned on. Expect load plus learn in single-digit minutes.
func PaperHIV() HIVConfig {
	cfg := DefaultHIV2K4K()
	// The generator emits ≈15.7K Initial tuples per scale unit at the 300
	// base compounds, so 895 lands on ≈14.0M.
	cfg.Scale = 895
	cfg.Only = "Initial"
	return cfg
}

var hivElements = []string{"c", "n", "o", "s", "cl", "f", "p", "br"}

// HIVInitialSchema builds the Initial schema of Table 3 with the INDs of
// Table 4.
func HIVInitialSchema(elements, properties int) *relstore.Schema {
	if elements > len(hivElements) {
		elements = len(hivElements)
	}
	s := relstore.NewSchema()
	s.MustAddRelation("compound", "comp", "atm")
	s.MustAddRelation("bonds", "bd", "atm1", "atm2")
	s.MustAddRelation("bType1", "bd", "t1")
	s.MustAddRelation("bType2", "bd", "t2")
	s.MustAddRelation("bType3", "bd", "t3")
	for e := 0; e < elements; e++ {
		s.MustAddRelation("element_"+hivElements[e], "atm")
	}
	for p := 0; p < properties; p++ {
		s.MustAddRelation("p2_"+strconv.Itoa(p), "atm")
	}
	// Table 4: bonds[bd] = bTypeK[bd] with equality; the rest are subsets.
	s.MustAddIND("bonds", []string{"bd"}, "bType1", []string{"bd"}, true)
	s.MustAddIND("bonds", []string{"bd"}, "bType2", []string{"bd"}, true)
	s.MustAddIND("bonds", []string{"bd"}, "bType3", []string{"bd"}, true)
	s.MustAddIND("bonds", []string{"atm1"}, "compound", []string{"atm"}, false)
	s.MustAddIND("bonds", []string{"atm2"}, "compound", []string{"atm"}, false)
	for e := 0; e < elements; e++ {
		s.MustAddIND("element_"+hivElements[e], []string{"atm"}, "compound", []string{"atm"}, false)
	}
	for p := 0; p < properties; p++ {
		s.MustAddIND("p2_"+strconv.Itoa(p), []string{"atm"}, "compound", []string{"atm"}, false)
	}
	s.SetDomain("atm1", "atm")
	s.SetDomain("atm2", "atm")
	return s
}

// hivPipelines returns the pipelines Initial→4NF-1 (compose bond types)
// and Initial→4NF-2 (decompose bonds into source/target).
func hivPipelines(initial *relstore.Schema) (*transform.Pipeline, *transform.Pipeline) {
	to4nf1 := transform.NewPipeline(initial)
	to4nf1.MustCompose("bonds", "bonds", "bType1", "bType2", "bType3")

	to4nf2 := transform.NewPipeline(initial)
	to4nf2.MustDecompose("bonds",
		transform.Part{Name: "bSource", Attrs: []string{"bd", "atm1"}},
		transform.Part{Name: "bTarget", Attrs: []string{"bd", "atm2"}},
	)
	return to4nf1, to4nf2
}

// GenerateHIV builds the dataset under all three schemas (or just
// cfg.Only when set), with Compounds multiplied by cfg.Scale.
func GenerateHIV(cfg HIVConfig) (*Dataset, error) {
	cfg.Compounds = scaleCount(cfg.Compounds, cfg.Scale)
	r := newRng(cfg.Seed)
	schema := HIVInitialSchema(cfg.Elements, cfg.Properties)
	inst := relstore.NewInstance(schema)
	types := []string{"bt1", "bt2", "bt3"}

	var pos, neg []logic.Atom
	atomID, bondID := 0, 0
	for c := 0; c < cfg.Compounds; c++ {
		comp := "comp" + strconv.Itoa(c)
		n := cfg.AtomsPerCompound/2 + r.Intn(cfg.AtomsPerCompound)
		if n < 2 {
			n = 2
		}
		atoms := make([]string, n)
		elems := make([]int, n)
		for a := 0; a < n; a++ {
			atoms[a] = "atm" + strconv.Itoa(atomID)
			atomID++
			elems[a] = r.Intn(cfg.Elements)
			inst.MustInsert("compound", comp, atoms[a])
			inst.MustInsert("element_"+hivElements[elems[a]], atoms[a])
			if r.Float64() < 0.5 {
				inst.MustInsert("p2_"+strconv.Itoa(r.Intn(cfg.Properties)), atoms[a])
			}
		}
		// Bond tree plus a few extra edges.
		active := false
		addBond := func(i, j int) {
			bd := "bd" + strconv.Itoa(bondID)
			bondID++
			inst.MustInsert("bonds", bd, atoms[i], atoms[j])
			t1 := types[r.Intn(len(types))]
			inst.MustInsert("bType1", bd, t1)
			inst.MustInsert("bType2", bd, types[r.Intn(len(types))])
			inst.MustInsert("bType3", bd, types[r.Intn(len(types))])
			// The planted motif: a carbon–nitrogen bond whose first type
			// slot is bt1.
			if t1 == "bt1" && elems[i] == 0 && cfg.Elements > 1 && elems[j] == 1 {
				active = true
			}
		}
		for a := 1; a < n; a++ {
			addBond(r.Intn(a), a)
		}
		for k := 0; k < n/3; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i != j {
				addBond(i, j)
			}
		}
		e := logic.GroundAtom("hivActive", comp)
		if active {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("datasets: HIV generator broke its constraints: %w", err)
	}
	pos, neg = flipLabels(r, pos, neg, cfg.NoiseFrac)
	if cfg.NegPerPos > 0 {
		neg = sampleExamples(r, neg, cfg.NegPerPos*len(pos))
	}

	want := func(name string) bool { return cfg.Only == "" || cfg.Only == name }
	var variants []*Variant
	if want("Initial") {
		variants = append(variants, &Variant{Name: "Initial", Schema: schema, Instance: inst})
	}
	to4nf1, to4nf2 := hivPipelines(schema)
	if want("4NF-1") {
		i1, err := to4nf1.Apply(inst)
		if err != nil {
			return nil, fmt.Errorf("datasets: HIV 4NF-1: %w", err)
		}
		variants = append(variants, &Variant{Name: "4NF-1", Schema: to4nf1.To(), Instance: i1})
	}
	if want("4NF-2") {
		i2, err := to4nf2.Apply(inst)
		if err != nil {
			return nil, fmt.Errorf("datasets: HIV 4NF-2: %w", err)
		}
		variants = append(variants, &Variant{Name: "4NF-2", Schema: to4nf2.To(), Instance: i2})
	}
	if len(variants) == 0 {
		return nil, fmt.Errorf("datasets: HIV has no variant %q (have Initial, 4NF-1, 4NF-2)", cfg.Only)
	}

	return &Dataset{
		Name:       "HIV",
		Variants:   variants,
		Target:     &relstore.Relation{Name: "hivActive", Attrs: []string{"comp"}},
		Pos:        pos,
		Neg:        neg,
		ValueAttrs: map[string]bool{"t1": true, "t2": true, "t3": true},
	}, nil
}
