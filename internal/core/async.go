package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// The asynchronous bounded-staleness execution path. The lockstep protocols
// of protocols.go advance one iteration at a time, waiting for a full pull
// round before every update; here the servers and workers are decoupled the
// way the paper's asynchronous deployment mode describes: per-worker fetcher
// loops keep pulling gradient estimates against whatever model state is
// current, tag each estimate with the step its parameters came from, and
// enqueue it. The server-side step loop aggregates as soon as a quorum
// q = n_w - f_w of sufficiently fresh gradients is available — a straggler
// or crashed worker delays nothing, it simply stops contributing.
//
// Staleness control follows the standard bounded-staleness recipe: a
// gradient computed at step t0 and consumed at step t has staleness t - t0.
// Entries staler than the bound tau are discarded; accepted stale entries
// are damped by damping^staleness, shrinking the contribution of gradients
// computed against old parameters instead of letting them drag the model
// back. Config.StalenessBound / Config.StalenessDamping tune both knobs.
//
// The engine is roster-aware: the step loop polls the cluster's roster epoch
// between iterations; on a transition it rebinds — fetchers of departed
// workers are cancelled, fetchers for joiners are spawned, their queues are
// dropped or created, and the quorum and aggregator shapes track the new
// fleet. The iteration in flight completes against the old roster.
//
// One loop, asyncReplicaLoop, runs every async replica; only the source of
// the gradient estimates that feed its queues depends on the determinism
// regime:
//
//   - the live engine runs one fetcher goroutine per worker — throughput-
//     true but scheduling-dependent, like any async system;
//   - with Config.Deterministic set, a seeded replay schedule
//     (replaySchedule) stands in for the fetchers: worker fetch latencies
//     are drawn from an RNG derived from the cluster seed, and each fetch
//     completes as a sequential Call pushed into the same queues, so
//     selection, damping and staleness accounting are the live engine's
//     and a run is bit-identical at the same seed. Only the single-server
//     topology supports it.

// Default async tuning; see Config.StalenessBound / StalenessDamping.
const (
	DefaultStalenessBound   = 3
	DefaultStalenessDamping = 0.5
)

// asyncQueueDepth bounds each worker's queue: a slow consumer sees at most
// this many pending estimates per worker, newest kept, oldest evicted.
const asyncQueueDepth = 2

// taggedGrad is one queued gradient estimate and the step of the model state
// it was computed against.
type taggedGrad struct {
	vec  tensor.Vector
	step uint32
}

// gradQueues is the per-worker bounded queue set shared by the fetchers
// (producers) and the server step loop (consumer). Queues are keyed by the
// worker's stable slot index and gated by a membership set, so a roster
// rebind drops departed workers' queues and a straggling fetcher of a
// departed worker cannot re-insert one.
type gradQueues struct {
	mu     sync.Mutex
	slots  map[int][]taggedGrad // per member worker, oldest first
	member map[int]bool
	drops  int // entries discarded for exceeding the bound
	// notify wakes the consumer after a push; capacity 1 is enough because
	// the consumer re-scans all slots on every wake.
	notify chan struct{}
}

func newGradQueues(workers []int) *gradQueues {
	g := &gradQueues{
		slots:  make(map[int][]taggedGrad, len(workers)),
		member: make(map[int]bool, len(workers)),
		notify: make(chan struct{}, 1),
	}
	for _, w := range workers {
		g.member[w] = true
	}
	return g
}

// rebind replaces the membership set: departed workers' queues (and any
// estimate they hold — computed for the old roster) are dropped, joiners get
// an empty queue on their first push.
func (g *gradQueues) rebind(workers []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fresh := make(map[int]bool, len(workers))
	for _, w := range workers {
		fresh[w] = true
	}
	for w := range g.slots {
		if !fresh[w] {
			delete(g.slots, w)
		}
	}
	g.member = fresh
}

// push enqueues a tagged gradient for worker w, evicting the oldest entry
// when the slot is full, and wakes the consumer. Pushes from non-members
// (a fetcher racing its own cancellation across a rebind) are ignored.
func (g *gradQueues) push(w int, tg taggedGrad) {
	g.mu.Lock()
	if !g.member[w] {
		g.mu.Unlock()
		return
	}
	slot := g.slots[w]
	if len(slot) >= asyncQueueDepth {
		copy(slot, slot[1:])
		slot = slot[:len(slot)-1]
	}
	g.slots[w] = append(slot, tg)
	g.mu.Unlock()
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// asyncPick is one selected gradient with its provenance.
type asyncPick struct {
	worker    int
	staleness int
	vec       tensor.Vector
}

// tryCollect scans the queues at model step now: entries staler than tau are
// dropped, and if at least q workers still have a fresh entry, the q
// freshest (ties broken by worker index, so selection is reproducible given
// the same queue state) are popped and returned.
func (g *gradQueues) tryCollect(now uint32, q, tau int) []asyncPick {
	g.mu.Lock()
	defer g.mu.Unlock()
	candidates := make([]asyncPick, 0, len(g.slots))
	for w, slot := range g.slots {
		// Evict entries beyond the bound; the slot is oldest-first, so the
		// fresh suffix survives.
		keep := 0
		for keep < len(slot) && int(now-slot[keep].step) > tau {
			keep++
		}
		if keep > 0 {
			g.drops += keep
			copy(slot, slot[keep:])
			g.slots[w] = slot[:len(slot)-keep]
			slot = g.slots[w]
		}
		if len(slot) == 0 {
			continue
		}
		newest := slot[len(slot)-1]
		candidates = append(candidates, asyncPick{
			worker: w, staleness: int(now - newest.step), vec: newest.vec,
		})
	}
	if len(candidates) < q {
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].staleness != candidates[j].staleness {
			return candidates[i].staleness < candidates[j].staleness
		}
		return candidates[i].worker < candidates[j].worker
	})
	picked := candidates[:q]
	for _, p := range picked {
		slot := g.slots[p.worker]
		g.slots[p.worker] = slot[:len(slot)-1] // pop the newest (the one selected)
	}
	return picked
}

// collect blocks until tryCollect succeeds or the deadline passes.
func (g *gradQueues) collect(now uint32, q, tau int, timeout time.Duration) ([]asyncPick, error) {
	//lint:allow wallclock(liveness timeout of the live async engine; deterministic async runs collect through the replay schedule, which never calls collect)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if picked := g.tryCollect(now, q, tau); picked != nil {
			return picked, nil
		}
		select {
		case <-g.notify:
		case <-timer.C:
			return nil, fmt.Errorf("async step %d: %w: fewer than %d fresh gradients within %v",
				now, rpc.ErrQuorum, q, timeout)
		}
	}
}

// countDrop counts one estimate discarded for exceeding the bound before it
// reached a queue (a replay fetch that completed already too stale).
func (g *gradQueues) countDrop() {
	g.mu.Lock()
	g.drops++
	g.mu.Unlock()
}

// dropCount returns the number of bound-exceeding entries discarded so far.
func (g *gradQueues) dropCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.drops
}

// asyncFetch is one worker's fetcher loop: snapshot the replica's model,
// pull a gradient estimate against it, tag it with the snapshot step and
// enqueue. Failures (a crashed worker, an omitted Byzantine reply) back off
// and retry — in the async regime a missing worker costs freshness, never
// progress. The worker's address is resolved at spawn time: a fetcher
// belongs to one roster binding and is cancelled, not retargeted, when the
// worker departs.
func (c *Cluster) asyncFetch(ctx context.Context, s *Server, queues *gradQueues, w int, addr string) {
	backoff := time.Millisecond
	for ctx.Err() == nil {
		params, step := s.Snapshot()
		vec, err := c.pullGradient(ctx, s, addr, step, params)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Back off on the cluster clock (virtual under the simulator
			// wiring) so retry pacing cannot leak wall time into a
			// simulated run.
			c.clock.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = time.Millisecond
		queues.push(w, taggedGrad{vec: vec, step: step})
	}
}

// pullGradient issues one get_gradient call for the parameters of step to
// the worker at addr, bounded by Config.PullTimeout.
func (c *Cluster) pullGradient(ctx context.Context, s *Server, addr string, step uint32, params tensor.Vector) (tensor.Vector, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.PullTimeout)
	defer cancel()
	return s.client.Call(ctx, addr, rpc.Request{
		Kind: rpc.KindGetGradient, Step: step, Accept: s.accept, Vec: params,
	})
}

// dampPicks scales stale gradients by damping^staleness in place (the popped
// vectors are owned by the caller) and returns the summed staleness.
func dampPicks(picks []asyncPick, damping float64) (staleSum int) {
	for _, p := range picks {
		staleSum += p.staleness
		if p.staleness == 0 || damping == 1 {
			continue
		}
		f := math.Pow(damping, float64(p.staleness))
		for i := range p.vec {
			p.vec[i] *= f
		}
	}
	return staleSum
}

// pickVectors extracts the gradient vectors in selection order.
func pickVectors(picks []asyncPick) []tensor.Vector {
	out := make([]tensor.Vector, len(picks))
	for i, p := range picks {
		out[i] = p.vec
	}
	return out
}

// RunAsyncSSMW trains the single-server multi-worker topology with the
// bounded-staleness engine: the server updates as soon as q_w = n_w - f_w
// sufficiently fresh gradients are queued, instead of barrier-waiting a full
// pull round. With Config.Deterministic the queues are fed by the seeded
// replay schedule, which is bit-identical across runs at one seed.
func (c *Cluster) RunAsyncSSMW(opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return c.runAsync("async-ssmw", c.Roster().Servers[:1], false, opt)
}

// RunAsyncMSMW trains the replicated topology asynchronously: every honest
// replica runs its own bounded-staleness gradient loop (own fetchers, own
// queues), and every Config.ModelAggEvery updates it pulls q_ps = n_ps -
// f_ps peer models and robust-aggregates them — without any cross-replica
// barrier, so replicas observe each other mid-update and contraction is what
// keeps them close. Accuracy, throughput and staleness are observed at the
// first honest replica. Deterministic mode is not supported here (the replay
// schedule covers the single-server topology); RunAsyncMSMW returns
// ErrConfig for it.
func (c *Cluster) RunAsyncMSMW(opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if c.Roster().NPS() < 2 {
		return nil, fmt.Errorf("%w: async msmw needs at least 2 server replicas", ErrConfig)
	}
	if c.cfg.Deterministic {
		return nil, fmt.Errorf("%w: deterministic async replay supports the single-server topology only", ErrConfig)
	}
	return c.runAsync("async-msmw", c.Roster().HonestServers(), true, opt)
}

// runAsync runs asyncReplicaLoop at every replica through forEach — one
// goroutine each, since Deterministic runs have a single replica — recording
// at the first, and closes the run's wall time and wire accounting.
func (c *Cluster) runAsync(name string, replicas []int, contract bool, opt RunOptions) (*Result, error) {
	res := newResult(name)
	start := c.clock.Now()
	wire0 := c.WireStats()
	k, err := c.forEach(len(replicas), func(k int) error {
		return c.asyncReplicaLoop(res, c.Server(replicas[k]), contract, opt, start, k == 0)
	})
	if err != nil {
		return nil, fmt.Errorf("core: %s replica %d: %w", name, replicas[k], err)
	}
	res.WallTime = c.clock.Now().Sub(start)
	res.Wire = c.WireStats().Sub(wire0)
	return res, nil
}

// asyncReplicaLoop drives one replica's bounded-staleness training loop:
// fetchers (or, under Config.Deterministic, the seeded replay schedule) feed
// the queues, each iteration collects a fresh quorum, damps,
// aggregates and updates, and (with contract set) every ModelAggEvery
// updates the replica contracts toward its peers by pulling and
// robust-aggregating q_ps models. Between iterations the loop polls the
// roster epoch and rebinds on a transition: departed workers' fetchers are
// cancelled and their queues dropped, joiners get fresh fetchers, and the
// quorums and aggregator shapes follow the new fleet. Only the recording
// replica writes into res.
func (c *Cluster) asyncReplicaLoop(res *Result, s *Server, contract bool, opt RunOptions, start time.Time, record bool) error {
	cfg := c.cfg
	tau, damping := cfg.asyncParams()

	ctx, cancel := context.WithCancel(context.Background())
	var fetchers sync.WaitGroup
	// Stop order matters: cancel the fetchers, then wait them out (defers
	// run last-in first-out).
	defer fetchers.Wait()
	defer cancel()

	ro := c.Roster()
	queues := newGradQueues(ro.Workers)
	collect := func(now uint32, q int) ([]asyncPick, error) {
		return queues.collect(now, q, tau, cfg.PullTimeout)
	}
	var replay *replaySchedule
	if cfg.Deterministic {
		replay = newReplaySchedule(c, s, queues, tau)
		collect = replay.collect
	}
	cancels := make(map[int]func(), len(ro.Workers))
	spawn := func(w int, addr string) {
		if replay != nil {
			cancels[w] = replay.spawn(w, addr)
			return
		}
		fctx, fcancel := context.WithCancel(ctx)
		cancels[w] = fcancel
		fetchers.Add(1)
		go func() {
			defer fetchers.Done()
			c.asyncFetch(fctx, s, queues, w, addr)
		}()
	}
	for k, w := range ro.Workers {
		spawn(w, ro.WorkerAddrs[k])
	}

	var gradAgg, modelAgg *Aggregator
	var gradKey, modelKey aggKey
	staleSum, quorumSum := 0, 0
	for i := 0; i < opt.Iterations; i++ {
		if fresh := c.Roster(); fresh.Epoch != ro.Epoch {
			ro = fresh
			queues.rebind(ro.Workers)
			member := make(map[int]bool, len(ro.Workers))
			for _, w := range ro.Workers {
				member[w] = true
			}
			for w, fcancel := range cancels {
				if !member[w] {
					fcancel()
					delete(cancels, w)
				}
			}
			for k, w := range ro.Workers {
				if _, ok := cancels[w]; !ok {
					spawn(w, ro.WorkerAddrs[k])
				}
			}
		}
		q := ro.NW() - ro.FW
		ga, err := cachedAggregator(&gradAgg, &gradKey, cfg.Rule, q, ro.FW)
		if err != nil {
			return fmt.Errorf("async iteration %d: %w", i, err)
		}
		commDone := c.phaseTimer()
		picks, err := collect(s.Step(), q)
		if record {
			res.Breakdown.AddComm(commDone())
		}
		if err != nil {
			return err
		}
		aggDone := c.phaseTimer()
		staleSum += dampPicks(picks, damping)
		quorumSum += q
		aggr, err := ga.Aggregate(pickVectors(picks))
		if record {
			res.Breakdown.AddAgg(aggDone())
		}
		if err != nil {
			return fmt.Errorf("async iteration %d: %w", i, err)
		}
		if err := s.UpdateModel(aggr); err != nil {
			return err
		}
		if contract && (i+1)%cfg.ModelAggEvery == 0 {
			qps := ro.NPS() - ro.FPS
			ma, err := cachedAggregator(&modelAgg, &modelKey, cfg.ModelRule, qps, ro.FPS)
			if err != nil {
				return fmt.Errorf("async iteration %d: %w", i, err)
			}
			if err := c.asyncModelExchange(s, ma, qps); err != nil {
				return fmt.Errorf("async iteration %d: %w", i, err)
			}
		}
		if record {
			res.Breakdown.EndIteration()
			res.Updates++
			if err := c.recordAccuracy(res, s, opt, i, start); err != nil {
				return err
			}
		}
	}
	if record {
		if quorumSum > 0 {
			res.AvgStaleness = float64(staleSum) / float64(quorumSum)
		}
		res.StaleDrops = queues.dropCount()
	}
	return nil
}

// asyncModelExchange is the barrier-free contraction step: pull the fastest
// q_ps peer models (whatever state they are in) and overwrite local state
// with their robust aggregate.
func (c *Cluster) asyncModelExchange(s *Server, modelAgg *Aggregator, qps int) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PullTimeout)
	defer cancel()
	aggr, err := pullAggregate(nil, nil, modelAgg, func() ([]tensor.Vector, error) {
		return s.GetModels(ctx, qps)
	})
	if err != nil {
		return err
	}
	return s.WriteModel(aggr)
}

// asyncReplaySalt domain-separates the replay schedule RNG from every other
// consumer of the cluster seed.
const asyncReplaySalt = 0x61737963 // "asyc"

// replaySchedule is the deterministic stand-in for one replica's fetcher
// goroutines: a single-threaded event schedule in which worker fetch
// latencies come from an RNG seeded by the cluster seed instead of the
// scheduler, so fetch completion order is a pure function of the seed.
// Completions run sequentially on the replica's loop — each one a real Call
// over the RPC path, so attacks, momentum and fault injection behave exactly
// as in the live engine — and push into the loop's gradQueues. The schedule
// spawns no goroutine and reads no clock, so it runs identically under the
// live and the simulator wiring.
type replaySchedule struct {
	c      *Cluster
	s      *Server
	queues *gradQueues
	tau    int
	rng    *tensor.RNG
	vt     float64 // virtual time of the latest completion
	// snapshots rings the parameters of the last tau+1 steps: a fetch
	// tagged with step t0 reads snapshots[t0 % (tau+1)], valid exactly while
	// its result could still pass the staleness filter.
	snapshots []tensor.Vector
	fetches   []replayFetch // in spawn order, which breaks completion ties
}

// replayFetch models one worker's in-flight pull.
type replayFetch struct {
	worker int
	addr   string
	tag    uint32  // step of the parameters the fetch observes
	done   float64 // virtual completion time
	dead   bool    // worker no longer answers (crashed or always-omitting)
}

func newReplaySchedule(c *Cluster, s *Server, queues *gradQueues, tau int) *replaySchedule {
	return &replaySchedule{
		c: c, s: s, queues: queues, tau: tau,
		rng:       tensor.NewRNG(c.cfg.Seed ^ asyncReplaySalt),
		snapshots: make([]tensor.Vector, tau+1),
	}
}

// replayLatency draws one fetch duration (in model steps) from the replay's
// latency process: most fetches take about one step, a seeded minority
// straggle by up to tau+1 extra steps so the staleness filter and damping
// genuinely engage.
func replayLatency(rng *tensor.RNG, tau int) float64 {
	l := 0.6 + 0.8*rng.Float64()
	if rng.Float64() < 0.2 {
		l += float64(1 + rng.Intn(tau+1))
	}
	return l
}

// spawn starts worker w's first fetch against the current model state and
// returns the cancel that takes the worker out of the schedule.
func (r *replaySchedule) spawn(w int, addr string) func() {
	r.fetches = append(r.fetches, replayFetch{
		worker: w, addr: addr, tag: r.s.Step(), done: r.vt + replayLatency(r.rng, r.tau),
	})
	return func() {
		r.fetches = slices.DeleteFunc(r.fetches, func(f replayFetch) bool { return f.worker == w })
	}
}

// collect is the replay's gradQueues.collect: it snapshots step now's
// parameters, then runs fetch completions, earliest virtual finisher first,
// until tryCollect finds a fresh quorum of q. A completion already staler
// than tau is counted as a drop without a pull (its snapshot is gone); a
// failed pull takes its worker out of the schedule for the rest of the run.
// Every other completion is pushed, and each completing worker starts its
// next fetch against the current model.
func (r *replaySchedule) collect(now uint32, q int) ([]asyncPick, error) {
	depth := uint32(len(r.snapshots))
	r.snapshots[now%depth] = r.s.Params()
	for {
		if picks := r.queues.tryCollect(now, q, r.tau); picks != nil {
			return picks, nil
		}
		k, live := -1, 0
		for j, f := range r.fetches {
			if f.dead {
				continue
			}
			live++
			if k < 0 || f.done < r.fetches[k].done {
				k = j
			}
		}
		if live < q {
			return nil, fmt.Errorf("async step %d: %w: %d live workers for quorum %d",
				now, rpc.ErrQuorum, live, q)
		}
		f := &r.fetches[k]
		r.vt = max(r.vt, f.done)
		if int(now-f.tag) > r.tau {
			r.queues.countDrop()
		} else {
			vec, err := r.c.pullGradient(context.Background(), r.s, f.addr, f.tag, r.snapshots[f.tag%depth])
			if err != nil {
				f.dead = true
				continue
			}
			r.queues.push(f.worker, taggedGrad{vec: vec, step: f.tag})
		}
		f.tag, f.done = now, r.vt+replayLatency(r.rng, r.tau)
	}
}
