package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"garfield/internal/gar"
	"garfield/internal/metrics"
	"garfield/internal/tensor"
)

// Stepper is the per-round protocol state machine, decoupled from the run
// loop that drives it. Step(i) executes iteration i — pulls, aggregation,
// model updates, whatever the topology's round consists of — and Observed
// returns the replica accuracy is measured at after the step. Extracting
// the state machine behind this interface is what lets one loop
// (driveSteps) serve every lockstep topology, sharded included, on both
// execution engines: the live runner drives steppers over
// goroutine-per-node RPC and the wall clock, the discrete-event simulator
// drives the same steppers over direct virtual-time dispatch.
type Stepper interface {
	// Step executes iteration i and returns the round's root-cause error;
	// an errRoundAborted reports a round that ended cleanly without an
	// update.
	Step(i int) error
	// Observed returns the replica the run's accuracy is measured at —
	// valid after a Step that returned nil or an errRoundAborted.
	Observed() *Server
}

// phaseTimer starts a per-phase duration measurement on the cluster's clock
// and returns its stop function. Under the simulator wiring the measured
// spans are virtual time, so phase breakdowns are deterministic per seed
// instead of scheduler noise.
func (c *Cluster) phaseTimer() func() time.Duration {
	start := c.clock.Now()
	return func() time.Duration { return c.clock.Now().Sub(start) }
}

// driveSteps is the run loop of every lockstep protocol: one Step, one
// throughput tick and one accuracy check per iteration, all measured on the
// cluster's clock. A step that returns errRoundAborted (a sharded round that
// aborted before any model write) still counts as an iteration — accuracy
// is recorded on the unchanged model — but not as an update; any other
// error fails the run. Whether the stepper underneath fans out goroutines
// over real RPC or advances a virtual clock over direct dispatch is
// invisible from here.
func (c *Cluster) driveSteps(res *Result, st Stepper, opt RunOptions) (*Result, error) {
	start := c.clock.Now()
	wire0 := c.WireStats()
	for i := 0; i < opt.Iterations; i++ {
		err := st.Step(i)
		if err != nil && !errors.Is(err, errRoundAborted) {
			return nil, err
		}
		res.Breakdown.EndIteration()
		if err == nil {
			res.Updates++
		}
		if err := c.recordAccuracy(res, st.Observed(), opt, i, start); err != nil {
			return nil, err
		}
	}
	res.WallTime = c.clock.Now().Sub(start)
	res.Wire = c.WireStats().Sub(wire0)
	return res, nil
}

// forEach runs fn(k) for every k in [0, n) and waits for all of them: in
// index order on the calling goroutine under Config.Deterministic — the
// only schedule a virtual clock drives reproducibly, so live deterministic
// and simulated runs share one code path — and one goroutine per index
// otherwise. It is the only place the lockstep rounds fan out over
// replicas. Every fn runs even when an earlier one fails; forEach returns
// the lowest failing index and that index's own error, or (-1, nil).
func (c *Cluster) forEach(n int, fn func(k int) error) (int, error) {
	errs := make([]error, n)
	if c.cfg.Deterministic {
		for k := range errs {
			errs[k] = fn(k)
		}
	} else {
		var wg sync.WaitGroup
		for k := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = fn(k)
			}()
		}
		wg.Wait()
	}
	for k, err := range errs {
		if err != nil {
			return k, err
		}
	}
	return -1, nil
}

// pullAggregate performs one pull and aggregates its replies with agg. A
// non-nil bd is charged the pull as communication time and the aggregation
// as aggregation time, both measured on clock; with a nil bd nothing is
// timed and clock may be nil.
func pullAggregate(clock Clock, bd *metrics.Breakdown, agg *Aggregator, pull func() ([]tensor.Vector, error)) (tensor.Vector, error) {
	if bd == nil {
		vecs, err := pull()
		if err != nil {
			return nil, err
		}
		return agg.Aggregate(vecs)
	}
	start := clock.Now()
	vecs, err := pull()
	pulled := clock.Now()
	bd.AddComm(pulled.Sub(start))
	if err != nil {
		return nil, err
	}
	out, err := agg.Aggregate(vecs)
	bd.AddAgg(clock.Now().Sub(pulled))
	return out, err
}

// singleServerStepper is the round of the single-server topologies (vanilla,
// SSMW, AggregaThor): the roster's first replica pulls a full worker quorum,
// aggregates with the topology's rule and applies the update. The roster is
// re-read every step, so mid-run joins/leaves take effect at the next round,
// and the aggregator rebuilds only when the fleet shape changes.
type singleServerStepper struct {
	c      *Cluster
	res    *Result
	rule   string
	robust bool
	name   string
	agg    *Aggregator
	key    aggKey
	obs    *Server
}

func (st *singleServerStepper) Step(i int) error {
	c := st.c
	ro := c.Roster()
	s := c.Server(ro.Servers[0])
	st.obs = s
	q, f := ro.NW(), 0
	if st.robust {
		f = ro.FW
	}
	ag, err := cachedAggregator(&st.agg, &st.key, st.rule, q, f)
	if err != nil {
		return fmt.Errorf("core: %s: %w", st.name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PullTimeout)
	aggr, err := pullAggregate(c.clock, st.res.Breakdown, ag, func() ([]tensor.Vector, error) {
		return s.GetGradients(ctx, i, q)
	})
	cancel()
	if err != nil {
		return fmt.Errorf("core: %s iteration %d: %w", st.name, i, err)
	}
	return s.UpdateModel(aggr)
}

func (st *singleServerStepper) Observed() *Server { return st.obs }

// crashStepper is the round of the strawman crash-tolerant baseline of
// Section 6.2: every live replica collects all worker gradients, averages
// and updates, fanned out through forEach; the primary's failure aborts the
// run, a backup's does not, and only the primary's timings feed the
// breakdown. Aggregators are cached per replica slot — slots are stable
// across roster transitions, and a slot's rule rebuilds only when the
// active worker count changes under it.
type crashStepper struct {
	c    *Cluster
	res  *Result
	aggs map[int]*Aggregator
	keys map[int]aggKey
	obs  *Server
}

func (st *crashStepper) Step(i int) error {
	c := st.c
	ro := c.Roster()
	p, ok := c.primary()
	if !ok {
		return fmt.Errorf("core: crash-tolerant: all %d replicas crashed or departed", c.Servers())
	}
	st.obs = c.Server(p)
	var live []int
	var aggs []*Aggregator
	for _, r := range ro.Servers {
		if c.serverCrashed(r) {
			continue
		}
		slot, key := st.aggs[r], st.keys[r]
		agg, err := cachedAggregator(&slot, &key, gar.NameAverage, ro.NW(), 0)
		if err != nil {
			return fmt.Errorf("core: crash-tolerant: %w", err)
		}
		st.aggs[r], st.keys[r] = slot, key
		live, aggs = append(live, r), append(aggs, agg)
	}
	// Every live replica performs the averaging step so a backup's model
	// stays close to the primary's.
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PullTimeout)
	defer cancel()
	_, err := c.forEach(len(live), func(k int) error {
		s := c.Server(live[k])
		var bd *metrics.Breakdown
		if live[k] == p {
			bd = st.res.Breakdown
		}
		aggr, err := pullAggregate(c.clock, bd, aggs[k], func() ([]tensor.Vector, error) {
			return s.GetGradients(ctx, i, ro.NW())
		})
		if err == nil {
			err = s.UpdateModel(aggr)
		}
		if live[k] != p {
			return nil // a backup's failure does not fail the round
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("core: crash-tolerant iteration %d: %w", i, err)
	}
	return nil
}

func (st *crashStepper) Observed() *Server { return st.obs }

// phasedRound is one round of the replicated applications — MSMW
// (Listing 2) and decentralized learning (Listing 3) — over the replicas
// that train. Byzantine replicas need no training loop: their adversarial
// behaviour lives in how they answer pulls. stepPhased runs the round as a
// sequence of phases, each fanned out over every replica through forEach
// and complete at every replica before the next begins:
//
//  1. pull q gradients and aggregate them;
//  2. contract times: publish the aggregate (SetLatestAggrGrad clones it),
//     then pull q peers' aggregates and aggregate those;
//  3. update the model with the aggregate;
//  4. when exchange is set: pull qm peer models and aggregate them;
//  5. overwrite the model with that aggregate.
//
// So every replica has updated before any pulls a peer model, and every
// replica has pulled before any overwrites its state: the multiset of
// models a replica observes does not depend on scheduling.
type phasedRound struct {
	name, unit string // topology and replica noun, for error messages
	// replicas are the training servers' indices; replicas[0]'s timings
	// feed the breakdown.
	replicas            []int
	gradAggs, modelAggs []*Aggregator // per replica, parallel to replicas
	q, qm               int           // gradient and model quorums
	contract            int           // contraction steps per round
	exchange            bool          // whether this round exchanges models
}

// stepPhased runs iteration i of round p and returns the first failing
// replica's own error, naming that replica.
func (c *Cluster) stepPhased(res *Result, i int, p phasedRound) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PullTimeout)
	defer cancel()
	out := make([]tensor.Vector, len(p.replicas))
	phase := func(fn func(k int, s *Server) error) error {
		k, err := c.forEach(len(p.replicas), func(k int) error { return fn(k, c.Server(p.replicas[k])) })
		if err != nil {
			return fmt.Errorf("core: %s iteration %d %s %d: %w", p.name, i, p.unit, p.replicas[k], err)
		}
		return nil
	}
	pullPhase := func(aggs []*Aggregator, pull func(s *Server) ([]tensor.Vector, error)) error {
		return phase(func(k int, s *Server) (err error) {
			var bd *metrics.Breakdown
			if k == 0 {
				bd = res.Breakdown
			}
			out[k], err = pullAggregate(c.clock, bd, aggs[k], func() ([]tensor.Vector, error) { return pull(s) })
			return err
		})
	}

	if err := pullPhase(p.gradAggs, func(s *Server) ([]tensor.Vector, error) {
		return s.GetGradients(ctx, i, p.q)
	}); err != nil {
		return err
	}
	for step := 0; step < p.contract; step++ {
		for k, r := range p.replicas {
			c.Server(r).SetLatestAggrGrad(out[k])
		}
		if err := pullPhase(p.gradAggs, func(s *Server) ([]tensor.Vector, error) {
			return s.GetAggrGrads(ctx, p.q)
		}); err != nil {
			return err
		}
	}
	if err := phase(func(k int, s *Server) error { return s.UpdateModel(out[k]) }); err != nil {
		return err
	}
	if !p.exchange {
		return nil
	}
	if err := pullPhase(p.modelAggs, func(s *Server) ([]tensor.Vector, error) {
		return s.GetModels(ctx, p.qm)
	}); err != nil {
		return err
	}
	return phase(func(k int, s *Server) error { return s.WriteModel(out[k]) })
}

// msmwStepper is the round of the multi-server multi-worker application of
// Listing 2: a phasedRound over the roster's honest replicas, with model
// exchange every Config.ModelAggEvery rounds and no contraction step. The
// roster is re-read every step, and aggregators are cached per replica
// slot: replica indices are stable across roster transitions, and a slot's
// rules rebuild only when the quorum shape changes under it (a join/leave
// between rounds).
type msmwStepper struct {
	c         *Cluster
	res       *Result
	gradAggs  map[int]*Aggregator
	gradKeys  map[int]aggKey
	modelAggs map[int]*Aggregator
	modelKeys map[int]aggKey
	obs       *Server
}

func newMSMWStepper(c *Cluster, res *Result) *msmwStepper {
	return &msmwStepper{
		c: c, res: res,
		gradAggs: make(map[int]*Aggregator), gradKeys: make(map[int]aggKey),
		modelAggs: make(map[int]*Aggregator), modelKeys: make(map[int]aggKey),
	}
}

func (st *msmwStepper) Step(i int) error {
	c, cfg := st.c, st.c.cfg
	ro := c.Roster()
	honest := ro.HonestServers()
	if len(honest) == 0 {
		return fmt.Errorf("%w: msmw iteration %d: no honest replicas left", ErrConfig, i)
	}
	st.obs = c.Server(honest[0])
	round := phasedRound{
		name: "msmw", unit: "replica", replicas: honest,
		q: ro.NW() - ro.FW, qm: ro.NPS() - ro.FPS,
		exchange: (i+1)%cfg.ModelAggEvery == 0,
	}
	if cfg.SyncQuorum {
		round.q, round.qm = ro.NW(), ro.NPS()
	}
	for _, r := range honest {
		gradSlot, gradKey := st.gradAggs[r], st.gradKeys[r]
		ga, err := cachedAggregator(&gradSlot, &gradKey, cfg.Rule, round.q, ro.FW)
		if err != nil {
			return fmt.Errorf("core: msmw: %w", err)
		}
		st.gradAggs[r], st.gradKeys[r] = gradSlot, gradKey
		modelSlot, modelKey := st.modelAggs[r], st.modelKeys[r]
		ma, err := cachedAggregator(&modelSlot, &modelKey, cfg.ModelRule, round.qm, ro.FPS)
		if err != nil {
			return fmt.Errorf("core: msmw: %w", err)
		}
		st.modelAggs[r], st.modelKeys[r] = modelSlot, modelKey
		round.gradAggs = append(round.gradAggs, ga)
		round.modelAggs = append(round.modelAggs, ma)
	}
	return c.stepPhased(st.res, i, round)
}

func (st *msmwStepper) Observed() *Server { return st.obs }

// decentralizedStepper is the round of the peer-to-peer application of
// Listing 3: a fixed phasedRound over the honest nodes, each the pairing of
// a Worker and a Server, exchanging models every round.
type decentralizedStepper struct {
	c     *Cluster
	res   *Result
	round phasedRound
}

func (st *decentralizedStepper) Step(i int) error { return st.c.stepPhased(st.res, i, st.round) }

func (st *decentralizedStepper) Observed() *Server { return st.c.Server(0) }
