// Package eval provides the evaluation metrics and cross-validation
// harness of §9.1.3: precision and recall of learned definitions over held
// out test examples, averaged over k folds.
package eval

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/relstore"
)

// Metrics summarizes a definition's quality on a labeled test set.
type Metrics struct {
	// TP, FP, FN are true positives, false positives and false negatives.
	TP, FP, FN int
	// Precision is TP/(TP+FP); Recall is TP/(TP+FN); F1 their harmonic
	// mean. All are 0 when undefined.
	Precision, Recall, F1 float64
}

// Evaluate scores a definition against labeled examples on the instance.
func Evaluate(inst *relstore.Instance, def *logic.Definition, pos, neg []logic.Atom) Metrics {
	m := Metrics{FN: len(pos)}
	if def != nil {
		for _, ok := range inst.DefinitionCoverage(def, pos) {
			if ok {
				m.TP++
				m.FN--
			}
		}
		for _, ok := range inst.DefinitionCoverage(def, neg) {
			if ok {
				m.FP++
			}
		}
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.2f R=%.2f F1=%.2f (tp=%d fp=%d fn=%d)", m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
}

// Average averages a set of metric results (macro average over folds).
func Average(ms []Metrics) Metrics {
	var out Metrics
	if len(ms) == 0 {
		return out
	}
	for _, m := range ms {
		out.TP += m.TP
		out.FP += m.FP
		out.FN += m.FN
		out.Precision += m.Precision
		out.Recall += m.Recall
		out.F1 += m.F1
	}
	n := float64(len(ms))
	out.Precision /= n
	out.Recall /= n
	out.F1 /= n
	return out
}

// Fold is one train/test split.
type Fold struct {
	TrainPos, TrainNeg []logic.Atom
	TestPos, TestNeg   []logic.Atom
}

// KFold splits the examples into k folds deterministically from the seed.
// Positives and negatives are shuffled and dealt round-robin so every fold
// keeps the class ratio.
func KFold(seed int64, pos, neg []logic.Atom, k int) []Fold {
	if k < 2 {
		k = 2
	}
	p := shuffled(seed, pos)
	n := shuffled(seed+1, neg)
	folds := make([]Fold, k)
	assignP := make([][]logic.Atom, k)
	assignN := make([][]logic.Atom, k)
	for i, e := range p {
		assignP[i%k] = append(assignP[i%k], e)
	}
	for i, e := range n {
		assignN[i%k] = append(assignN[i%k], e)
	}
	for f := 0; f < k; f++ {
		folds[f].TestPos = assignP[f]
		folds[f].TestNeg = assignN[f]
		for g := 0; g < k; g++ {
			if g == f {
				continue
			}
			folds[f].TrainPos = append(folds[f].TrainPos, assignP[g]...)
			folds[f].TrainNeg = append(folds[f].TrainNeg, assignN[g]...)
		}
	}
	return folds
}

// shuffled returns a seeded Fisher-Yates shuffle of the examples.
func shuffled(seed int64, es []logic.Atom) []logic.Atom {
	out := append([]logic.Atom(nil), es...)
	s := uint64(seed)
	if s == 0 {
		s = 1
	}
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
