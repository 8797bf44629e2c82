// Package datasets generates the three benchmark databases of §9.1.1 of
// the paper — UW-CSE, HIV, and IMDb — as seeded synthetic equivalents,
// each under every schema variant the paper evaluates (Tables 1 and 3–8).
// The variants of one dataset are *corresponding instances*: the generator
// builds the most normalized variant and derives the others through the
// composition/decomposition pipelines of internal/transform, so
// information equivalence holds by construction.
//
// Substitution note (see DESIGN.md): the real datasets (NCI AIDS screen,
// UW-CSE benchmark dump, JMDB) are not available offline; the generators
// plant the same target signals the paper's learned definitions exploit —
// advisedBy via co-publication with a faculty professor, hivActive via a
// molecular motif, dramaDirector via the genre join — with configurable
// scale and label noise.
package datasets

import (
	"fmt"
	"slices"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
)

// Variant is one schema variant of a dataset with its instance.
type Variant struct {
	// Name is the paper's name for the variant (e.g. "Original", "4NF-1").
	Name string
	// Schema and Instance hold the data under this variant.
	Schema   *relstore.Schema
	Instance *relstore.Instance
}

// Dataset is a generated benchmark: all schema variants plus the shared
// learning task (the examples are over the target relation, which is not
// part of any schema, so they are identical across variants).
type Dataset struct {
	// Name is the dataset name ("UW-CSE", "HIV", "IMDb").
	Name string
	// Variants in the paper's presentation order.
	Variants []*Variant
	// Target is the target relation symbol.
	Target *relstore.Relation
	// Pos and Neg are the labeled examples.
	Pos, Neg []logic.Atom
	// ValueAttrs lists the value domains for bottom-clause construction.
	ValueAttrs map[string]bool
}

// Variant returns the named variant or an error listing the options.
func (d *Dataset) Variant(name string) (*Variant, error) {
	var names []string
	for _, v := range d.Variants {
		if v.Name == name {
			return v, nil
		}
		names = append(names, v.Name)
	}
	return nil, fmt.Errorf("datasets: %s has no variant %q (have %v)", d.Name, name, names)
}

// Problem builds the ILP problem for the named variant.
func (d *Dataset) Problem(variant string) (*ilp.Problem, error) {
	v, err := d.Variant(variant)
	if err != nil {
		return nil, err
	}
	return &ilp.Problem{
		Instance:   v.Instance,
		Target:     d.Target,
		Pos:        d.Pos,
		Neg:        d.Neg,
		ValueAttrs: d.ValueAttrs,
	}, nil
}

// Stats is one row of the paper's Table 2 for one variant.
type Stats struct {
	Dataset   string
	Variant   string
	Relations int
	Tuples    int
	Pos, Neg  int
}

// TableStats computes Table 2's statistics for every variant.
func (d *Dataset) TableStats() []Stats {
	out := make([]Stats, len(d.Variants))
	for i, v := range d.Variants {
		out[i] = Stats{
			Dataset:   d.Name,
			Variant:   v.Name,
			Relations: v.Schema.NumRelations(),
			Tuples:    v.Instance.NumTuples(),
			Pos:       len(d.Pos),
			Neg:       len(d.Neg),
		}
	}
	return out
}

// rng is the shared deterministic generator (xorshift64*), identical
// across platforms and Go versions.
type rng struct{ s uint64 }

func newRng(seed int64) *rng {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	return &rng{s: uint64(seed)}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *rng) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *rng) Float64() float64 {
	return float64(r.next()%(1<<53)) / (1 << 53)
}

// flipLabels injects label noise: it moves ⌊frac·|pos|⌋ random positives to
// the negatives and the same *count* of negatives to the positives. Tying
// the noise volume to the positive class keeps the signal dominant — a
// uniform per-pair flip would bury a small positive class under fake
// positives. The draws depend only on the lengths, so labelling example
// atoms or compact codes for them flips the same examples. Both slices are
// shuffled in place, and the negatives come back in neg's own array: the
// generators own the pools they pass and drop them, and a copy of UW-CSE's
// 518k negative codes would be most of what labelling allocates.
func flipLabels[T any](r *rng, pos, neg []T, frac float64) (outPos, outNeg []T) {
	n := int(frac * float64(len(pos)))
	if n <= 0 || len(pos) == 0 || len(neg) == 0 {
		return pos, neg
	}
	if n > len(neg) {
		n = len(neg)
	}
	// Select n positives and n negatives to swap (partial Fisher-Yates).
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(pos)-i)
		pos[i], pos[j] = pos[j], pos[i]
		k := i + r.Intn(len(neg)-i)
		neg[i], neg[k] = neg[k], neg[i]
	}
	outPos = append(append(make([]T, 0, len(pos)), pos[n:]...), neg[:n]...)
	outNeg = append(neg[:copy(neg, neg[n:])], pos[:n]...)
	return outPos, outNeg
}

// sampleExamples downsamples examples to at most n, deterministically,
// shuffling pool in place. The sample is a fresh slice, so the pool it was
// drawn from is not kept alive.
func sampleExamples[T any](r *rng, pool []T, n int) []T {
	if n >= len(pool) {
		return pool
	}
	// Partial Fisher-Yates.
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return slices.Clone(pool[:n])
}

// scaleCount multiplies an entity count by the configured scale factor.
// A scale of 0 (the zero value) or 1 leaves the count untouched, so
// default configurations generate byte-identical datasets.
func scaleCount(n int, scale float64) int {
	if scale <= 0 || scale == 1 {
		return n
	}
	out := int(float64(n)*scale + 0.5)
	if out < 1 {
		out = 1
	}
	return out
}
