package sirl_test

// Performance floors that must hold on any machine, asserted with
// testing.Benchmark over the same helpers the benchmarks use. Both compare
// two configurations measured in the same process, so the thresholds are
// machine independent; neither runs under the race detector, whose
// instrumentation swamps what they measure.

import (
	"runtime"
	"testing"
)

// TestScoringPoolGates requires the candidate-scoring pool to pay for
// itself: with one worker per GOMAXPROCS it must beat the serial scorer
// outright (speedup ≥ 1.0), keep its workers busy (pool_busy_ratio ≥ 0.6:
// busy worker-time over the rounds' whole worker-time budget) and
// balanced (pool_straggler_ratio ≤ 4: the slowest worker's shard chain
// over the mean chain, wall-weighted across rounds). Scoring rounds last
// under a millisecond, so utilization only means something when every
// worker has a core of its own: the test skips below GOMAXPROCS 4, where
// two or three workers leave too little to gate, and above NumCPU, where
// oversubscribed workers wake after the cursor is drained. CI runs it at
// GOMAXPROCS=4 and fails the step if it skips.
func TestScoringPoolGates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector serializes the pool")
	}
	procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU()
	if procs < 4 {
		t.Skipf("GOMAXPROCS=%d: the pool gates need at least 4 workers", procs)
	}
	if procs > cpus {
		t.Skipf("GOMAXPROCS=%d exceeds NumCPU=%d: the gates would measure oversubscription", procs, cpus)
	}
	prob := benchUWCSEProblem(t, true)
	cands := buildScoringCandidates(t, prob)
	serial := mustBenchmark(t, "serial", func(b *testing.B) { benchScoreBatch(b, prob, cands, 1, true) })
	par := mustBenchmark(t, "parallel", func(b *testing.B) { benchScoreBatch(b, prob, cands, procs, true) })
	speedup := nsPerOp(serial) / nsPerOp(par)
	busy, straggler := par.Extra["pool_busy_ratio"], par.Extra["pool_straggler_ratio"]
	t.Logf("GOMAXPROCS=%d NumCPU=%d: serial %.0f ns/op, parallel %.0f ns/op, speedup %.2f, pool_busy_ratio %.2f, pool_straggler_ratio %.2f",
		procs, cpus, nsPerOp(serial), nsPerOp(par), speedup, busy, straggler)
	if speedup < 1.0 {
		t.Errorf("parallel_speedup = %.2f, want >= 1.0", speedup)
	}
	if busy < 0.6 {
		t.Errorf("pool_busy_ratio = %.2f, want >= 0.6", busy)
	}
	if straggler > 4 {
		t.Errorf("pool_straggler_ratio = %.2f, want <= 4", straggler)
	}
}

// TestColumnarProbeBeatsLegacy requires the frozen columnar store to beat
// the legacy map store by at least 2× on the store probe mix of
// BenchmarkRelstoreProbe, both in time per op and in heap bytes allocated
// per op (legacy bytes over columnar bytes + 1, so an allocation-free
// columnar probe still yields a finite ratio). Each side runs twice,
// alternating, and keeps its faster run, so one noisy interval cannot
// decide the comparison.
func TestColumnarProbeBeatsLegacy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow allocations and slows both stores unevenly")
	}
	d := benchRelstoreData(t)
	var legacy, columnar testing.BenchmarkResult
	for i := 0; i < 2; i++ {
		l := mustBenchmark(t, "legacy", func(b *testing.B) { benchRelstoreProbeLegacy(b, d) })
		c := mustBenchmark(t, "columnar", func(b *testing.B) { benchRelstoreProbeColumnar(b, d) })
		if i == 0 || nsPerOp(l) < nsPerOp(legacy) {
			legacy = l
		}
		if i == 0 || nsPerOp(c) < nsPerOp(columnar) {
			columnar = c
		}
	}
	speedup := nsPerOp(legacy) / nsPerOp(columnar)
	memRatio := float64(legacy.AllocedBytesPerOp()) / float64(columnar.AllocedBytesPerOp()+1)
	t.Logf("legacy %.0f ns/op %d B/op, columnar %.0f ns/op %d B/op: speedup %.2f, mem ratio %.1f",
		nsPerOp(legacy), legacy.AllocedBytesPerOp(), nsPerOp(columnar), columnar.AllocedBytesPerOp(), speedup, memRatio)
	if speedup < 2.0 {
		t.Errorf("columnar probe speedup over legacy = %.2f, want >= 2.0", speedup)
	}
	if memRatio < 2.0 {
		t.Errorf("legacy/columnar bytes per probe = %.1f, want >= 2.0", memRatio)
	}
}

// mustBenchmark runs f through testing.Benchmark and fails the test when it
// did not run: a b.Fatal inside testing.Benchmark aborts silently.
func mustBenchmark(t *testing.T, name string, f func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	r := testing.Benchmark(f)
	if r.N == 0 {
		t.Fatalf("%s: benchmark did not run", name)
	}
	return r
}

// nsPerOp is the result's time per op as a float, for ratios.
func nsPerOp(r testing.BenchmarkResult) float64 { return float64(r.NsPerOp()) }
