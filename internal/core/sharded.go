package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"garfield/internal/gar"
	"garfield/internal/rpc"
	"garfield/internal/shard"
	"garfield/internal/tensor"
)

// This file is the sharded-aggregation topology: the distributed form of
// internal/shard, breaking the O(n²·d) single-box aggregation wall by
// partitioning the work across the server replicas.
//
// Coordinate-wise rules (average, median, trimmedmean, phocas) shard the
// coordinate space: shard k's owner pulls only the [lo_k, hi_k) slice of
// every worker's gradient (ranged pulls — the wire ships d/S coordinates per
// worker per owner instead of d), aggregates the slices, and publishes the
// part. Selection rules (krum, multikrum, mda, bulyan) shard the worker
// space hierarchically: shard k's owner pulls full gradients from group k's
// workers only, runs the rule locally, and publishes the group winner; the
// root round over the winners runs at every replica during reassembly. The
// coordinate-wise composition is bit-identical to the flat rule; the
// hierarchical one is bounded by the drift envelopes documented and tested
// in internal/shard.
//
// Each round is two phases with an all-or-abort commit:
//
//	Phase A — every shard's owner pulls, aggregates, and publishes its part
//	          (Server.SetShardPart, stamped with the round).
//	Phase B — every live replica collects all S parts (its own locally,
//	          the rest via KindGetShardPart pulls), assembles the full
//	          update — concatenation for coordinate-wise rules, the root
//	          selection round for hierarchical ones — and only after every
//	          live replica holds a complete, width-checked assembly does
//	          anyone apply it. A failure anywhere (quorum miss, owner
//	          unreachable, torn part) aborts the round before the first
//	          model write: the model either takes the full-coordinate
//	          update or none of it, never a partial-coordinate write.
//
// The server tier is crash-only (FPS must be 0): shard owners are trusted
// to aggregate honestly, exactly as the paper's SSMW server is — Byzantine
// workers remain tolerated through the GARs. A crashed owner's shards fail
// over to the next live replica in rotation (ShardFailovers counts the
// reassignments); a replica recovered mid-run catches up by adopting the
// newest live peer's model before its next round (Server.AdoptState).
type shardedStepper struct {
	c   *Cluster
	res *Result
	obs *Server

	coord bool       // coordinate-wise rule: exact coordinate sharding
	plan  shard.Plan // coordinate partition (coord mode only)

	// Phase A aggregators, one per shard (the shard fixes the input shape:
	// quorum width for coordinate-wise, group size for hierarchical), and
	// Phase B root aggregators, one per replica slot (hierarchical only).
	aggs     map[int]*Aggregator
	keys     map[int]aggKey
	rootAggs map[int]*Aggregator
	rootKeys map[int]aggKey

	// scratch holds each replica's assembly buffer; winners holds each
	// replica's pulled group winners (hierarchical). Keyed by replica slot,
	// reused across rounds.
	scratch map[int]tensor.Vector
	winners map[int][]tensor.Vector
}

// RunSharded trains with the sharded-aggregation topology. Requirements:
// Shards >= 1 (and, for coordinate-wise rules, at most the model dimension;
// for selection rules, a worker grouping satisfying the rule's floors), and
// FPS == 0 — reassembly trusts shard owners, so the server tier is
// crash-only while Byzantine workers stay covered by the GARs.
func (c *Cluster) RunSharded(opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	cfg := c.cfg
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: sharded topology needs shards >= 1, got %d", ErrConfig, cfg.Shards)
	}
	if cfg.FPS != 0 {
		return nil, fmt.Errorf("%w: sharded reassembly trusts shard owners: fps must be 0 (crash faults only on the server tier), got %d",
			ErrConfig, cfg.FPS)
	}
	st := &shardedStepper{
		c: c, res: newResult("sharded"),
		coord: gar.CoordinateWise(cfg.Rule),
		aggs:  make(map[int]*Aggregator), keys: make(map[int]aggKey),
		rootAggs: make(map[int]*Aggregator), rootKeys: make(map[int]aggKey),
		scratch: make(map[int]tensor.Vector), winners: make(map[int][]tensor.Vector),
	}
	if st.coord {
		plan, err := shard.NewPlan(cfg.Arch.Dim(), cfg.Shards)
		if err != nil {
			return nil, fmt.Errorf("%w: sharded: %v", ErrConfig, err)
		}
		st.plan = plan
	} else {
		// Fast-fail the hierarchical shape: group floors and the root
		// round's f=0 floor, validated exactly as the local aggregators
		// will be built.
		if _, err := shard.NewHierarchical(cfg.Rule, cfg.NW, cfg.FW, cfg.Shards); err != nil {
			return nil, fmt.Errorf("%w: sharded: %v", ErrConfig, err)
		}
	}
	return c.driveSteps(st.res, st, opt)
}

// errRoundAborted marks a sharded round that aborted cleanly — a quorum
// miss, an unreachable owner or donor, a torn or missing part — before any
// replica wrote its model. driveSteps counts such a round as an iteration
// without an update; every other error fails the run (configuration or
// rule failures, not transient network faults).
var errRoundAborted = errors.New("round aborted")

// abortf returns an errRoundAborted naming the abort's cause.
func abortf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errRoundAborted}, args...)...)
}

// Step runs sharded round i and counts it as committed or aborted.
// Accuracy is recorded on the committed and aborted model alike, so the
// artifact curve keeps one point per schedule slot whatever the fault
// pattern — the bit-identical sweep contract needs a stable shape.
func (st *shardedStepper) Step(i int) error {
	err := st.round(i)
	switch {
	case err == nil:
		st.res.ShardRounds++
	case errors.Is(err, errRoundAborted):
		st.res.ShardAborts++
	default:
		return fmt.Errorf("core: sharded iteration %d: %w", i, err)
	}
	return err
}

func (st *shardedStepper) Observed() *Server { return st.obs }

// liveReplicas returns the active, non-crashed replica slots in roster
// order. With FPS == 0 every live replica is honest and drivable.
func (st *shardedStepper) liveReplicas(ro Roster) []int {
	live := make([]int, 0, len(ro.Servers))
	for _, r := range ro.Servers {
		if !st.c.serverCrashed(r) {
			live = append(live, r)
		}
	}
	return live
}

// ownerOf resolves shard k's owner: the preferred replica is roster slot
// k mod nps, and a crashed preference fails over to the next live replica in
// rotation. Deterministic in (roster, crash set), so every replica derives
// the same ownership map without coordination.
func (st *shardedStepper) ownerOf(ro Roster, k int) (owner int, failedOver, ok bool) {
	n := len(ro.Servers)
	for off := 0; off < n; off++ {
		r := ro.Servers[(k+off)%n]
		if !st.c.serverCrashed(r) {
			return r, off > 0, true
		}
	}
	return 0, false, false
}

// catchUp brings lagging live replicas (recovered after missing committed
// rounds) onto the fleet's newest model: each laggard pulls the model of the
// first replica at the maximum step through its own client and adopts it
// wholesale. A failed pull aborts the round.
func (st *shardedStepper) catchUp(ctx context.Context, live []int) error {
	c := st.c
	maxStep, donor := uint32(0), -1
	for _, r := range live {
		if s := c.Server(r).Step(); donor < 0 || s > maxStep {
			maxStep, donor = s, r
		}
	}
	donorAddr := c.ServerAddr(donor)
	for _, r := range live {
		s := c.Server(r)
		if r == donor || s.Step() == maxStep {
			continue
		}
		vec, err := s.client.Call(ctx, donorAddr, rpc.Request{Kind: rpc.KindGetModel, Step: maxStep})
		if err != nil {
			return abortf("replica %d catch-up from replica %d: %w", r, donor, err)
		}
		if err := s.AdoptState(vec, maxStep); err != nil {
			return err
		}
	}
	return nil
}

// round executes one sharded round: nil when the update was applied at
// every live replica, an errRoundAborted when it aborted before any model
// write, any other error when the run must fail.
func (st *shardedStepper) round(i int) error {
	c, cfg := st.c, st.c.cfg
	ro := c.Roster()
	live := st.liveReplicas(ro)
	if len(live) == 0 {
		return fmt.Errorf("%w: all %d replicas crashed or departed", ErrConfig, len(ro.Servers))
	}
	st.obs = c.Server(live[0])
	S := cfg.Shards

	ctx, cancel := context.WithTimeout(context.Background(), cfg.PullTimeout)
	defer cancel()

	if err := st.catchUp(ctx, live); err != nil {
		return err
	}

	owners := make([]int, S)
	for k := 0; k < S; k++ {
		o, failedOver, ok := st.ownerOf(ro, k)
		if !ok {
			return fmt.Errorf("%w: no live replica to own shard %d", ErrConfig, k)
		}
		owners[k] = o
		if failedOver {
			st.res.ShardFailovers++
		}
	}

	if err := st.phaseA(ctx, ro, owners, i); err != nil {
		return err
	}

	// Phase B: every live replica collects all parts and assembles the full
	// update. Nothing is applied until every assembly is complete and
	// width-checked — the all-or-abort barrier that rules out torn
	// (partial-coordinate) model writes.
	assembled := make([]tensor.Vector, len(live))
	for idx, r := range live {
		var err error
		if st.coord {
			assembled[idx], err = st.assembleCoord(ctx, r, owners, i, idx == 0)
		} else {
			assembled[idx], err = st.assembleHier(ctx, r, owners, i, idx == 0)
		}
		if err != nil {
			return err
		}
	}
	for idx, r := range live {
		if err := c.Server(r).UpdateModel(assembled[idx]); err != nil {
			return err
		}
	}
	return nil
}

// phaseA has every shard's owner pull its shard's inputs, aggregate them
// and publish the part (Server.SetShardPart, stamped with the round). Both
// modes index shards through a shard.Plan: for a coordinate-wise rule, shard
// k's owner pulls the [lo_k, hi_k) slice of a worker quorum and aggregates it
// with the flat rule — exactly the flat aggregation's arithmetic on that
// slice, which is what makes reassembly bit-identical; for a selection rule,
// it pulls full gradients from group k's workers only and runs the rule over
// the group, tolerating up to FW Byzantine members (the declared-Byzantine
// workers are the roster's last FW, so whatever groups they land in stay
// within the per-group budget the drift bounds assume). A failed pull aborts
// the round; a rule failure on a complete pull is a bug, not a fault.
func (st *shardedStepper) phaseA(ctx context.Context, ro Roster, owners []int, i int) error {
	c, cfg := st.c, st.c.cfg
	plan, qw := st.plan, ro.NW()
	if !cfg.SyncQuorum {
		qw -= ro.FW
	}
	if !st.coord {
		var err error
		if plan, err = shard.NewGroups(ro.NW(), len(owners)); err != nil {
			return fmt.Errorf("%w: sharded: %v", ErrConfig, err)
		}
	}
	for k, owner := range owners {
		s := c.Server(owner)
		lo, hi := plan.Range(k)
		n, pull := qw, func() ([]tensor.Vector, error) {
			return s.GetGradientsRange(ctx, i, qw, uint16(k), lo, hi)
		}
		if !st.coord {
			n, pull = hi-lo, func() ([]tensor.Vector, error) {
				return s.GetGradientsFrom(ctx, i, ro.WorkerAddrs[lo:hi], hi-lo)
			}
		}
		agg, err := st.shardAggregator(k, cfg.Rule, n, ro.FW)
		if err != nil {
			return err
		}
		part, err := pullAggregate(c.clock, st.res.Breakdown, agg, func() ([]tensor.Vector, error) {
			vecs, err := pull()
			if err != nil {
				return nil, abortf("shard %d pull at replica %d: %w", k, owner, err)
			}
			return vecs, nil
		})
		if err != nil {
			return err
		}
		s.SetShardPart(uint32(i), uint16(k), part)
	}
	return nil
}

// shardAggregator returns shard k's cached Phase A aggregator, rebuilt only
// when the shape under it changes (a roster transition between rounds).
func (st *shardedStepper) shardAggregator(k int, rule string, n, f int) (*Aggregator, error) {
	slot, key := st.aggs[k], st.keys[k]
	agg, err := cachedAggregator(&slot, &key, rule, n, f)
	if err != nil {
		return nil, err
	}
	st.aggs[k], st.keys[k] = slot, key
	return agg, nil
}

// assembleCoord collects all S coordinate parts at replica r and lays them
// into the replica's scratch buffer. The buffer is pre-filled with NaN and
// every part's width is checked against its shard range before the copy, so
// an incomplete or torn reassembly can never masquerade as a full update:
// the final NaN sweep is the tripwire (shard ranges tile [0, d), so a fully
// collected round leaves no NaN behind).
func (st *shardedStepper) assembleCoord(ctx context.Context, r int, owners []int, i int, record bool) (tensor.Vector, error) {
	c := st.c
	d := st.plan.Dim()
	buf := tensor.Resize(st.scratch[r], d)
	st.scratch[r] = buf
	nan := math.NaN()
	for j := range buf {
		buf[j] = nan
	}
	sr := c.Server(r)
	for k, owner := range owners {
		lo, hi := st.plan.Range(k)
		part, err := st.collectPart(ctx, sr, r, owner, uint32(i), uint16(k), lo, hi, record)
		if err != nil {
			return nil, err
		}
		copy(buf[lo:hi], part)
	}
	for j := range buf {
		if buf[j] != buf[j] {
			return nil, fmt.Errorf("reassembly left coordinate %d unwritten at replica %d", j, r)
		}
	}
	return buf, nil
}

// assembleHier collects the S group winners at replica r and runs the root
// selection round over them — every replica derives the identical root
// output from the identical winner set, which is what keeps the replicas'
// models in lockstep without a model-exchange phase.
func (st *shardedStepper) assembleHier(ctx context.Context, r int, owners []int, i int, record bool) (tensor.Vector, error) {
	c, cfg := st.c, st.c.cfg
	d := cfg.Arch.Dim()
	rootF, err := shard.RootF(cfg.Rule, len(owners))
	if err != nil {
		return nil, fmt.Errorf("%w: sharded: %v", ErrConfig, err)
	}
	rootSlot, rootKey := st.rootAggs[r], st.rootKeys[r]
	rootAgg, err := cachedAggregator(&rootSlot, &rootKey, cfg.Rule, len(owners), rootF)
	if err != nil {
		return nil, err
	}
	st.rootAggs[r], st.rootKeys[r] = rootSlot, rootKey

	ws := st.winners[r][:0]
	sr := c.Server(r)
	for k, owner := range owners {
		part, err := st.collectPart(ctx, sr, r, owner, uint32(i), uint16(k), 0, d, record)
		if err != nil {
			return nil, err
		}
		ws = append(ws, part)
	}
	st.winners[r] = ws
	aggDone := c.phaseTimer()
	out, err := rootAgg.Aggregate(ws)
	if record {
		st.res.Breakdown.AddAgg(aggDone())
	}
	if err != nil {
		return nil, err
	}
	// Land the root output in the replica's own scratch: the root
	// aggregator's buffer is reused next round, and the commit loop applies
	// every replica's assembly only after all are collected.
	buf := tensor.Resize(st.scratch[r], d)
	st.scratch[r] = buf
	copy(buf, out)
	return buf, nil
}

// collectPart fetches shard k's part of width hi-lo at replica r: a local
// store read when r owns the shard, a KindGetShardPart pull from the owner
// otherwise. An unavailable part (owner crashed mid-round, pull failed,
// stale step) or one of the wrong width (torn) aborts the round before any
// write.
func (st *shardedStepper) collectPart(ctx context.Context, sr *Server, r, owner int, step uint32, k uint16, lo, hi int, record bool) (tensor.Vector, error) {
	c := st.c
	var part tensor.Vector
	if owner == r {
		var ok bool
		if part, ok = sr.shardPartLocal(step, k); !ok {
			return nil, abortf("replica %d holds no part %d for step %d", r, k, step)
		}
	} else {
		commDone := c.phaseTimer()
		var err error
		part, err = sr.GetShardPart(ctx, c.ServerAddr(owner), step, k, lo, hi)
		if record {
			st.res.Breakdown.AddComm(commDone())
		}
		if err != nil {
			return nil, abortf("part %d from replica %d at replica %d: %w", k, owner, r, err)
		}
	}
	if len(part) != hi-lo {
		return nil, abortf("torn part %d at replica %d: width %d, want %d", k, r, len(part), hi-lo)
	}
	return part, nil
}
