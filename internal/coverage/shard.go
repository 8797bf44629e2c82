package coverage

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Sharded fan-out. Instead of one goroutine per example (or per
// candidate), a scoring round flattens its work into items, splits them
// into contiguous shards of roughly equal size, and lets a fixed pool of
// workers pull shards off a shared atomic cursor; Engine.shardCount
// plans shardOversub shards per worker. Boundaries only steer scheduling:
// every item's result lands in its own slot, so the outcome of a round is
// identical for any sharding and any worker count.

// shard is one contiguous run of work items [lo, hi).
type shard struct{ lo, hi int }

// shardOversub is how many shards each worker gets by default: enough
// slack for dynamic load balancing when items differ in cost, without
// drowning the round in cursor traffic.
const shardOversub = 4

// planShards splits items [0, n) into at most want contiguous shards of
// roughly equal size. It never returns more than n shards, and always
// covers [0, n) exactly.
func planShards(n, want int) []shard {
	if n <= 0 {
		return nil
	}
	if want > n {
		want = n
	}
	if want <= 1 {
		return []shard{{0, n}}
	}
	out := make([]shard, 0, want)
	lo := 0
	for i := 0; i < n; i++ {
		// Greedy balanced cut: aim each remaining shard at an equal slice
		// of the remaining items.
		if rem := want - len(out); rem > 1 && i+1-lo >= (n-lo)/rem {
			out = append(out, shard{lo, i + 1})
			lo = i + 1
		}
	}
	if lo < n {
		out = append(out, shard{lo, n})
	}
	return out
}

// poolUtil is the utilization accumulator one engine shares across every
// pool it creates: accumulated busy/idle worker time and drained shard
// and task counts. A nil *poolUtil (unobserved runs) records nothing and
// costs the rounds no clock reads.
type poolUtil struct {
	run    *obs.Run
	reg    *obs.Registry
	busyNS atomic.Int64 // worker time inside shard fns, all rounds
	idleNS atomic.Int64 // worker time waiting on the cursor, all rounds
	critNS atomic.Int64 // slowest worker chain per round, summed
	meanNS atomic.Int64 // mean active worker chain per round, summed
}

// newPoolUtil builds the accumulator, or nil when the run carries no
// registry (the nop path).
func newPoolUtil(run *obs.Run) *poolUtil {
	reg := run.Registry()
	if reg == nil {
		return nil
	}
	return &poolUtil{run: run, reg: reg}
}

// roundDone folds one pooled round into the registry. Busy is the summed
// wall time workers spent inside shard fns; idle is the rest of the
// round's worker-time budget, workers×wall − busy: time workers spent
// starved at the drained cursor while a straggler shard finished. The
// busy ratio is therefore in-round utilization — serial learner sections
// between rounds are excluded by construction (their spans cover those).
// maxChain/sumChain/active describe the round's per-worker drain chains
// (every shard one worker pulled, summed): the slowest chain is what the
// join actually waited on, so maxChain over the mean active chain is the
// round's straggler ratio.
func (u *poolUtil) roundDone(workers, shards, tasks int, wall, busy, maxShard, sumShard, maxChain, sumChain time.Duration, active int) {
	if u == nil {
		return
	}
	idle := time.Duration(workers)*wall - busy
	if idle < 0 {
		idle = 0 // clock skew between worker and submitter reads
	}
	busyTot := u.busyNS.Add(int64(busy))
	idleTot := u.idleNS.Add(int64(idle))
	u.reg.SetGauge(obs.GPoolBusySeconds, time.Duration(busyTot).Seconds())
	u.reg.SetGauge(obs.GPoolIdleSeconds, time.Duration(idleTot).Seconds())
	if tot := busyTot + idleTot; tot > 0 {
		u.reg.SetGauge(obs.GPoolBusyRatio, float64(busyTot)/float64(tot))
	}
	if shards > 1 && sumShard > 0 {
		// Imbalance: the worst shard against the round mean. 1.0 is a
		// perfectly balanced plan; N means one shard ran as long as N
		// average shards.
		u.reg.MaxGauge(obs.GPoolImbalance,
			float64(maxShard)*float64(shards)/float64(sumShard))
	}
	if active > 0 && sumChain > 0 && maxChain > 0 {
		mean := int64(sumChain) / int64(active)
		if mean < 1 {
			mean = 1
		}
		u.reg.MaxGauge(obs.GPoolStragglerMax, float64(maxChain)/float64(mean))
		// The whole-run gauge weights rounds by their wall time: long
		// straggly rounds dominate, sub-millisecond rounds barely move it.
		critTot := u.critNS.Add(int64(maxChain))
		meanTot := u.meanNS.Add(mean)
		u.reg.SetGauge(obs.GPoolStraggler, float64(critTot)/float64(meanTot))
	}
	u.run.Inc(obs.CPoolRounds)
	u.run.Add(obs.CPoolShards, int64(shards))
	u.run.Add(obs.CPoolTasks, int64(tasks))
}

// pool is a fixed set of worker goroutines reused across the rounds of
// one ScoreBatch call, so a bounded negative scan per candidate costs a
// round-trip on a channel instead of fresh goroutine spawns. A nil pool
// runs everything inline (the serial path).
type pool struct {
	workers int
	label   string
	util    *poolUtil
	tasks   chan func()
	round   sync.WaitGroup // open tasks of the current round
	exit    sync.WaitGroup // worker goroutine lifetimes
}

// newPool starts workers goroutines whose CPU samples are labeled with
// the given pprof phase; util (nil allowed) receives per-round
// utilization accounting. close must be called to release the workers.
func newPool(workers int, label string, util *poolUtil) *pool {
	p := &pool{workers: workers, label: label, util: util, tasks: make(chan func(), workers)}
	p.exit.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.exit.Done()
			obs.WithPhaseLabel(label, func() {
				for f := range p.tasks {
					f()
					p.round.Done()
				}
			})
		}()
	}
	return p
}

// runShards executes fn over every shard, workers pulling shards off a
// shared cursor until the list is drained, and returns when all are done.
// With a nil pool — or a single shard, where the cursor would be pure
// overhead — the shards run inline, in order, on the calling goroutine,
// under the same sirl_phase pprof label the pool's workers carry, so CPU
// profiles attribute single-shard batches to their pipeline stage instead
// of the caller's stack. label names that phase; a non-nil pool's own
// label wins so both paths always agree.
//
// When run records spans, every shard becomes a shard_<label> span tagged
// with a fresh pool-round ID and the draining worker's index, parented
// under the span open on the submitting goroutine, so a trace (the JSONL
// file or the Chrome trace's worker tracks) shows each round's fork/join.
// The inline path emits the same tags (worker 0, its own round ID), so a
// trace looks the same whichever path a batch took.
func runShards(run *obs.Run, p *pool, label string, shards []shard, fn func(sh shard)) {
	if len(shards) == 0 {
		return
	}
	if p != nil {
		label = p.label
	}
	spanning := run.Spanning()
	var parent *obs.Span
	var round uint64
	var kind string
	if spanning {
		parent = run.CurrentSpan()
		round = obs.NextPoolRound()
		kind = "shard_" + label
	}
	if p == nil || len(shards) <= 1 {
		obs.WithPhaseLabel(label, func() {
			for _, sh := range shards {
				if spanning {
					sp := run.StartWorkerSpan(parent, kind, round, 0, obs.F("tasks", sh.hi-sh.lo))
					fn(sh)
					sp.End()
				} else {
					fn(sh)
				}
			}
		})
		return
	}
	u := p.util
	var start time.Time
	var busy, maxShard, sumShard atomic.Int64
	var chain []int64 // per-worker drained wall time this round; disjoint indices
	if u != nil {
		start = time.Now()
		chain = make([]int64, p.workers)
	}
	// doShard runs one shard on worker w: span around it when spanning,
	// drain-time accounting when observed — workers accumulate their busy
	// time shard by shard, so the submitter can charge the rest of the
	// round to idling and rank worker chains for straggler detection.
	doShard := func(w int, sh shard) {
		var sp *obs.Span
		if spanning {
			sp = run.StartWorkerSpan(parent, kind, round, w, obs.F("tasks", sh.hi-sh.lo))
		}
		if u == nil {
			fn(sh)
			sp.End()
			return
		}
		s0 := time.Now()
		fn(sh)
		d := int64(time.Since(s0))
		busy.Add(d)
		sumShard.Add(d)
		chain[w] += d
		for {
			cur := maxShard.Load()
			if d <= cur || maxShard.CompareAndSwap(cur, d) {
				break
			}
		}
		sp.End()
	}
	var cursor atomic.Int64
	drain := func(w int) {
		for {
			k := int(cursor.Add(1)) - 1
			if k >= len(shards) {
				return
			}
			doShard(w, shards[k])
		}
	}
	p.round.Add(p.workers)
	if u == nil && !spanning {
		// Unobserved rounds keep the zero-extra-alloc submit: one shared
		// closure, no per-worker identity needed.
		shared := func() { drain(0) }
		for w := 0; w < p.workers; w++ {
			p.tasks <- shared
		}
	} else {
		for w := 0; w < p.workers; w++ {
			w := w
			p.tasks <- func() { drain(w) }
		}
	}
	p.round.Wait()
	if u != nil {
		tasks := 0
		for _, sh := range shards {
			tasks += sh.hi - sh.lo
		}
		var maxChain, sumChain int64
		active := 0
		for _, c := range chain {
			if c > 0 {
				active++
				sumChain += c
				if c > maxChain {
					maxChain = c
				}
			}
		}
		u.roundDone(p.workers, len(shards), tasks, time.Since(start),
			time.Duration(busy.Load()), time.Duration(maxShard.Load()), time.Duration(sumShard.Load()),
			time.Duration(maxChain), time.Duration(sumChain), active)
	}
}

// close shuts the workers down and waits for them to exit.
func (p *pool) close() {
	if p == nil {
		return
	}
	close(p.tasks)
	p.exit.Wait()
}
