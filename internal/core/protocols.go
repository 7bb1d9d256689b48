package core

import (
	"fmt"
	"time"

	"garfield/internal/gar"
	"garfield/internal/metrics"
	"garfield/internal/rpc"
)

// Result collects the measurements of one training run in the units the
// paper reports: accuracy over iterations (Figures 4, 5, 12a), accuracy over
// wall-clock time (Figures 11, 12b), a per-phase latency breakdown
// (Figures 7, 16), and aggregate throughput.
type Result struct {
	// Accuracy is accuracy vs iteration index.
	Accuracy *metrics.Series
	// AccuracyOverTime is accuracy vs seconds since the run started.
	AccuracyOverTime *metrics.Series
	// Breakdown accumulates per-phase latency.
	Breakdown *metrics.Breakdown
	// Updates is the number of model updates applied (at the observed
	// server).
	Updates int
	// WallTime is the total run duration.
	WallTime time.Duration

	// AvgStaleness is the mean staleness (in steps) of the gradients the
	// observed server aggregated; always 0 for the lockstep protocols.
	AvgStaleness float64
	// StaleDrops counts gradients the observed server discarded for
	// exceeding the staleness bound (async protocols only).
	StaleDrops int

	// ShardRounds, ShardAborts and ShardFailovers instrument the sharded
	// topology (RunSharded): rounds committed through full reassembly,
	// rounds aborted with no model write (a pull or quorum failure anywhere
	// in the round — the all-or-abort guarantee's observable half), and
	// shard-ownership reassignments away from the preferred owner (a crashed
	// owner's shards moving to the next live replica). All zero elsewhere.
	ShardRounds    int
	ShardAborts    int
	ShardFailovers int

	// Wire is the run's byte accounting, summed over every replica's
	// pooled client: frame bytes in/out, and the pull-reply payload bytes
	// as shipped versus their fp64-passthrough baseline — the pair the
	// compression ratio derives from. See rpc.WireStats.
	Wire rpc.WireStats
}

// UpdatesPerSec returns observed throughput in the paper's updates/sec
// metric.
func (r *Result) UpdatesPerSec() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Updates) / r.WallTime.Seconds()
}

// RunOptions tunes one protocol run.
type RunOptions struct {
	// Iterations is the number of training steps.
	Iterations int
	// AccEvery measures accuracy every that many iterations (and at the
	// end); 0 disables intermediate measurements.
	AccEvery int
}

func (o RunOptions) validate() error {
	if o.Iterations < 1 {
		return fmt.Errorf("%w: iterations=%d", ErrConfig, o.Iterations)
	}
	if o.AccEvery < 0 {
		return fmt.Errorf("%w: accEvery=%d", ErrConfig, o.AccEvery)
	}
	return nil
}

func newResult(name string) *Result {
	return &Result{
		Accuracy:         &metrics.Series{Name: name},
		AccuracyOverTime: &metrics.Series{Name: name},
		Breakdown:        &metrics.Breakdown{},
	}
}

// recordAccuracy measures and records accuracy at iteration i when due.
func (c *Cluster) recordAccuracy(res *Result, s *Server, opt RunOptions, i int, start time.Time) error {
	if opt.AccEvery == 0 && i != opt.Iterations-1 {
		return nil
	}
	if opt.AccEvery != 0 && (i+1)%opt.AccEvery != 0 && i != opt.Iterations-1 {
		return nil
	}
	acc, err := s.ComputeAccuracy(c.cfg.Test)
	if err != nil {
		return fmt.Errorf("core: accuracy at iteration %d: %w", i, err)
	}
	res.Accuracy.Append(float64(i+1), acc)
	res.AccuracyOverTime.Append(c.clock.Now().Sub(start).Seconds(), acc)
	return nil
}

// RunVanilla trains with the fault-intolerant baseline: one server, plain
// averaging, synchronous collection from all workers. It is the TensorFlow /
// PyTorch stand-in every experiment normalizes against.
func (c *Cluster) RunVanilla(opt RunOptions) (*Result, error) {
	return c.runSingleServer(opt, gar.NameAverage, false, "vanilla")
}

// RunSSMW trains the single-server multi-worker application of Listing 1:
// a trusted server aggregates worker gradients with a robust GAR,
// synchronously (q_w = n_w).
func (c *Cluster) RunSSMW(opt RunOptions) (*Result, error) {
	return c.runSingleServer(opt, c.cfg.Rule, true, "ssmw")
}

// RunAggregaThor trains with the AggregaThor baseline: the SSMW topology
// fixed to Multi-Krum, as in the paper's comparisons.
func (c *Cluster) RunAggregaThor(opt RunOptions) (*Result, error) {
	return c.runSingleServer(opt, gar.NameMultiKrum, true, "aggregathor")
}

// runSingleServer drives the roster's first server replica through the
// shared run loop. The stepper re-reads the roster every iteration, so
// mid-run joins/leaves take effect at the next round: the worker quorum
// tracks the active worker count (and, for robust rules, the active
// declared-Byzantine count), and the aggregator is rebuilt only when the
// fleet shape actually changes.
func (c *Cluster) runSingleServer(opt RunOptions, rule string, robust bool, name string) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := newResult(name)
	return c.driveSteps(res, &singleServerStepper{c: c, res: res, rule: rule, robust: robust, name: name}, opt)
}

// RunCrashTolerant trains with the strawman crash-tolerant protocol of
// Section 6.2: the server is replicated, every replica collects all worker
// gradients and averages them, and workers (implicitly, via the pull fold-in)
// follow the primary. When the primary crashes the next replica takes over;
// its model may miss updates, which is acceptable for eventual convergence.
// Accuracy is observed at the current primary.
func (c *Cluster) RunCrashTolerant(opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if c.Servers() < 1 {
		return nil, fmt.Errorf("%w: crash-tolerant needs server replicas", ErrConfig)
	}
	res := newResult("crash-tolerant")
	st := &crashStepper{c: c, res: res, aggs: make(map[int]*Aggregator), keys: make(map[int]aggKey)}
	return c.driveSteps(res, st, opt)
}

// RunMSMW trains the multi-server multi-worker application of Listing 2 as
// one phased round per iteration over the honest replicas (see
// phasedRound): every replica pulls n_w - f_w gradients (n_w under
// SyncQuorum) and robust-aggregates them; every replica updates its model;
// then, on contraction rounds (every Config.ModelAggEvery), every replica
// pulls n_ps - f_ps peer models (n_ps under SyncQuorum) and
// robust-aggregates them, and every replica overwrites its state with that
// aggregate. Each phase completes at every replica before the next begins.
// Byzantine replicas serve corrupted models; Byzantine workers serve
// corrupted gradients. Accuracy is observed at the first honest replica.
func (c *Cluster) RunMSMW(opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if c.Roster().NPS() < 2 {
		return nil, fmt.Errorf("%w: msmw needs at least 2 server replicas", ErrConfig)
	}
	res := newResult("msmw")
	return c.driveSteps(res, newMSMWStepper(c, res), opt)
}

// RunDecentralized trains the peer-to-peer application of Listing 3 with
// the same phased round as RunMSMW (see phasedRound), run by the n - f
// honest nodes with quorum q = n - f (n under SyncQuorum): every node pulls
// q gradients and robust-aggregates them; under non-IID data,
// ContractSteps times, every node publishes its aggregate and then pulls
// and re-aggregates q peers' aggregates; every node updates its model;
// every node pulls and robust-aggregates q peer models; every node
// overwrites its state. Each phase completes at every node before the next
// begins. The cluster must be built with NPS == NW: node i is the pairing
// of server i and worker i. Accuracy is observed at node 0.
func (c *Cluster) RunDecentralized(opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	cfg := c.cfg
	if c.Servers() != cfg.NW {
		return nil, fmt.Errorf("%w: decentralized needs nps == nw (one server+worker pair per node), got %d servers %d workers",
			ErrConfig, c.Servers(), cfg.NW)
	}
	n, f := cfg.NW, cfg.FW
	q := n - f
	if cfg.SyncQuorum {
		q = n
	}
	round := phasedRound{name: "decentralized", unit: "node", q: q, qm: q, exchange: true}
	if cfg.NonIID {
		round.contract = cfg.ContractSteps
	}
	for r := 0; r < n-f; r++ {
		gradAgg, err := NewAggregator(cfg.Rule, q, f)
		if err != nil {
			return nil, fmt.Errorf("core: decentralized: %w", err)
		}
		modelAgg, err := NewAggregator(cfg.ModelRule, q, f)
		if err != nil {
			return nil, fmt.Errorf("core: decentralized: %w", err)
		}
		round.replicas = append(round.replicas, r)
		round.gradAggs = append(round.gradAggs, gradAgg)
		round.modelAggs = append(round.modelAggs, modelAgg)
	}
	res := newResult("decentralized")
	return c.driveSteps(res, &decentralizedStepper{c: c, res: res, round: round}, opt)
}
