package coverage

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Sharded fan-out. Instead of one goroutine per example (or per
// candidate), a round flattens its work into items, splits them into
// contiguous shards of roughly equal size, and lets the submitting
// goroutine and up to workers−1 persistent helpers pull shards off a
// shared atomic cursor; Engine.shardCount plans shardOversub shards per
// worker. Boundaries only steer scheduling: every item's result lands in
// its own slot, so the outcome of a round is identical for any sharding
// and any worker count.

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

// poolUtil is the utilization accumulator one engine shares across all
// its rounds: accumulated busy/idle worker time and drained shard and
// task counts. A nil *poolUtil (unobserved runs) records nothing and
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
// round's worker-time budget, workers×wall − busy: time the round's seats
// went unused, whether a worker sat starved at the drained cursor while a
// straggler shard finished or no helper was free to take the seat. The
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

// Persistent helpers. A round's submitter drains its own shards as worker
// 0; helper goroutines, started once and shared by every round of every
// engine in the process, join it for the rest. A round of a few hundred
// microseconds is shorter than waking an idle vCPU, so a helper that has
// just finished a round keeps polling for the next one for spinBound,
// yielding its processor between polls, and only then parks; a submitter
// wakes parked helpers with a non-blocking send. The submitter never
// waits for a helper: once the cursor is drained it waits only for the
// shards helpers have taken, so a round completes whether or not any
// helper joins, and a job may submit a round of its own (nested rounds).
//
// An idle helper holds no reference to any round, and through it to an
// engine, its tester or the compiled saturations they keep: it remembers
// the last round it saw by sequence number only. A helper that kept its
// last round's pointer would keep a finished learn alive into the next.

// spinBound is how long an idle helper polls for the next round before it
// parks. The beam loop posts rounds tens of microseconds apart; a sweep of
// 0, 100 µs, 200 µs and 1 ms on learnbench (DESIGN.md "Sharded batch
// scoring") chose it.
const spinBound = time.Millisecond

// helpers is the process's one set of helper goroutines.
var helpers struct {
	started atomic.Int32  // helpers running; never shrinks
	posted  atomic.Uint64 // rounds posted so far: idle helpers watch it

	mu   sync.Mutex
	open []*round        // posted rounds that may still seat a helper
	idle []chan struct{} // wake channels of parked helpers
}

// reserveHelpers starts helpers until at least n run: the helper count is
// the largest worker count any round asked for, minus one.
func reserveHelpers(n int) {
	if int(helpers.started.Load()) >= n {
		return
	}
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	for int(helpers.started.Load()) < n {
		helpers.started.Add(1)
		go helper()
	}
}

// helper joins posted rounds for as long as the process lives.
func helper() {
	wake := make(chan struct{}, 1)
	for {
		seen := helpers.posted.Load()
		if join() {
			continue
		}
		for deadline := time.Now().Add(spinBound); helpers.posted.Load() == seen && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		helpers.mu.Lock()
		if helpers.posted.Load() != seen {
			helpers.mu.Unlock()
			continue
		}
		helpers.idle = append(helpers.idle, wake)
		helpers.mu.Unlock()
		<-wake
	}
}

// join seats the calling helper in the oldest open round that has a free
// seat and shards left, drains that round with it, and reports whether it
// found one. Rounds with neither leave the open list.
func join() bool {
	helpers.mu.Lock()
	var r *round
	w := 0
	for len(helpers.open) > 0 {
		c := helpers.open[0]
		if c.seats > 0 && int(c.cursor.Load()) < len(c.shards) {
			c.seats--
			r, w = c, c.workers-1-c.seats
			if c.seats == 0 {
				helpers.open = slices.Delete(helpers.open, 0, 1)
			}
			break
		}
		helpers.open = slices.Delete(helpers.open, 0, 1)
	}
	helpers.mu.Unlock()
	if r == nil {
		return false
	}
	r.drain(w)
	return true
}

// round is one pooled runShards call while it is open.
type round struct {
	shards  []shard
	label   string
	workers int
	do      func(w int, sh shard)
	cursor  atomic.Int64  // next shard to take
	left    atomic.Int64  // shards not yet done
	done    chan struct{} // closed when left reaches zero
	seats   int           // helper seats still free, under helpers.mu
}

// post opens the round to the helpers and wakes as many parked ones as it
// has seats.
func (r *round) post() {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	helpers.open = append(helpers.open, r)
	helpers.posted.Add(1)
	for n := r.seats; n > 0 && len(helpers.idle) > 0; n-- {
		last := len(helpers.idle) - 1
		select {
		case helpers.idle[last] <- struct{}{}:
		default:
		}
		helpers.idle = helpers.idle[:last]
	}
}

// finish is the submitter's end of a round whose cursor it has drained:
// no helper can take a shard any more, so the round leaves the open list,
// and finish waits only for the shards helpers took.
func (r *round) finish() {
	helpers.mu.Lock()
	if i := slices.Index(helpers.open, r); i >= 0 {
		helpers.open = slices.Delete(helpers.open, i, i+1)
	}
	helpers.mu.Unlock()
	// Parking at once would idle this processor, and the helper finishing
	// the last shard would hand the round back to it across a wakeup:
	// poll first, as an idle helper does.
	for deadline := time.Now().Add(spinBound); r.left.Load() > 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if r.left.Load() > 0 {
		<-r.done
	}
}

// drain runs shards off the cursor on worker w, under the round's phase
// label, until none are left.
func (r *round) drain(w int) {
	obs.WithPhaseLabel(r.label, func() {
		for {
			k := int(r.cursor.Add(1)) - 1
			if k >= len(r.shards) {
				return
			}
			r.do(w, r.shards[k])
			if r.left.Add(-1) == 0 {
				close(r.done)
			}
		}
	})
}

// runShards executes fn over every shard and returns when all are done.
// The calling goroutine drains the shards as worker 0 under the
// sirl_phase pprof label named by label, so CPU profiles attribute every
// round to its pipeline stage instead of the caller's stack. With more
// than one worker and more than one shard the round is posted to the
// helpers, and at most workers−1 of them join it; otherwise the caller
// drains every shard, in order.
//
// When run records spans, every shard becomes a shard_<label> span tagged
// with a fresh pool-round ID and the draining worker's index, parented
// under the span open on the submitting goroutine, so a trace (the JSONL
// file or the Chrome trace's worker tracks) shows each round's fork/join.
// The caller is worker 0 on both paths, so a trace looks the same
// whichever path a round took; only posted rounds feed the utilization
// accounting in util (nil records nothing).
func runShards(run *obs.Run, util *poolUtil, workers int, label string, shards []shard, fn func(sh shard)) {
	if len(shards) == 0 {
		return
	}
	pooled := workers > 1 && len(shards) > 1
	var u *poolUtil
	if pooled {
		u = util
	}
	spanning := run.Spanning()
	var parent *obs.Span
	var roundID uint64
	var kind string
	if spanning {
		parent = run.CurrentSpan()
		roundID = obs.NextPoolRound()
		kind = "shard_" + label
	}
	var start time.Time
	var busy, maxShard, sumShard atomic.Int64
	var chain []int64 // per-worker drained wall time this round; disjoint indices
	if u != nil {
		start = time.Now()
		chain = make([]int64, workers)
	}
	// doShard runs one shard on worker w: span around it when spanning,
	// drain-time accounting when observed — workers accumulate their busy
	// time shard by shard, so the submitter can charge the rest of the
	// round to idling and rank worker chains for straggler detection.
	doShard := func(w int, sh shard) {
		var sp *obs.Span
		if spanning {
			sp = run.StartWorkerSpan(parent, kind, roundID, w, obs.F("tasks", sh.hi-sh.lo))
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
	if !pooled {
		obs.WithPhaseLabel(label, func() {
			for _, sh := range shards {
				doShard(0, sh)
			}
		})
		return
	}
	reserveHelpers(workers - 1)
	r := &round{shards: shards, label: label, workers: workers, do: doShard, done: make(chan struct{}), seats: workers - 1}
	r.left.Store(int64(len(shards)))
	r.post()
	r.drain(0)
	r.finish()
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
		u.roundDone(workers, len(shards), tasks, time.Since(start),
			time.Duration(busy.Load()), time.Duration(maxShard.Load()), time.Duration(sumShard.Load()),
			time.Duration(maxChain), time.Duration(sumChain), active)
	}
}
