package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// PeerNode is the node object of the decentralized application when deployed
// across processes: one RPC endpoint playing both roles, answering gradient
// pulls from its Worker half and model / aggregated-gradient pulls from its
// Server half (Listing 3 creates "both a Server and a Worker object" per
// node).
type PeerNode struct {
	worker *Worker
	server *Server

	// Cached per-shape aggregators: DecentralizedStep runs on the node's
	// single training-loop goroutine, so the rule arenas and output
	// buffers are reused across iterations (rebuilt only if the caller
	// changes rule or quorum shape mid-run).
	gradAgg, modelAgg *Aggregator
	gradKey, modelKey aggKey
}

type aggKey struct {
	rule string
	n, f int
}

func cachedAggregator(slot **Aggregator, key *aggKey, rule string, n, f int) (*Aggregator, error) {
	want := aggKey{rule: rule, n: n, f: f}
	if *slot == nil || *key != want {
		agg, err := NewAggregator(rule, n, f)
		if err != nil {
			return nil, err
		}
		*slot, *key = agg, want
	}
	return *slot, nil
}

var _ rpc.Handler = (*PeerNode)(nil)

// NewPeerNode pairs a worker and a server into one endpoint.
func NewPeerNode(worker *Worker, server *Server) (*PeerNode, error) {
	if worker == nil || server == nil {
		return nil, fmt.Errorf("%w: peer node needs both halves", ErrConfig)
	}
	return &PeerNode{worker: worker, server: server}, nil
}

// Server exposes the server half (the training loop driver).
func (p *PeerNode) Server() *Server { return p.server }

// Handle implements rpc.Handler by role dispatch: gradient requests go to
// the worker half, everything else to the server half.
func (p *PeerNode) Handle(req rpc.Request) rpc.Response {
	switch req.Kind {
	case rpc.KindGetGradient:
		return p.worker.Handle(req)
	default:
		return p.server.Handle(req)
	}
}

// DecentralizedStep executes one iteration of Listing 3 for this node
// against remote peers, with no in-process phase alignment: the contract
// step retries until a quorum of peers has published an aggregated gradient
// for the round. q is the collection quorum (n-f, or n under synchrony).
func (p *PeerNode) DecentralizedStep(ctx context.Context, iteration, q, f int, rule, modelRule string, contractSteps int) error {
	s := p.server
	gradAgg, err := cachedAggregator(&p.gradAgg, &p.gradKey, rule, q, f)
	if err != nil {
		return fmt.Errorf("core: peer step %d: %w", iteration, err)
	}
	modelAgg, err := cachedAggregator(&p.modelAgg, &p.modelKey, modelRule, q, f)
	if err != nil {
		return fmt.Errorf("core: peer step %d: %w", iteration, err)
	}
	aggr, err := pullAggregate(nil, nil, gradAgg, func() ([]tensor.Vector, error) {
		return s.GetGradients(ctx, iteration, q)
	})
	if err != nil {
		return fmt.Errorf("core: peer step %d gradients: %w", iteration, err)
	}
	for step := 0; step < contractSteps; step++ {
		s.SetLatestAggrGrad(aggr)
		aggr, err = pullAggregate(nil, nil, gradAgg, func() ([]tensor.Vector, error) {
			return pullAggrGradsWithRetry(ctx, s, q)
		})
		if err != nil {
			return fmt.Errorf("core: peer step %d contract %d: %w", iteration, step, err)
		}
	}
	if err := s.UpdateModel(aggr); err != nil {
		return err
	}
	aggrModel, err := pullAggregate(nil, nil, modelAgg, func() ([]tensor.Vector, error) {
		return s.GetModels(ctx, q)
	})
	if err != nil {
		return fmt.Errorf("core: peer step %d models: %w", iteration, err)
	}
	return s.WriteModel(aggrModel)
}

// pullAggrGradsWithRetry keeps pulling until q peers serve an aggregated
// gradient or ctx expires. Peers that have not reached the publish point of
// the current round decline, which surfaces as a quorum miss — transient by
// construction, hence the retry loop (the cross-process substitute for the
// in-process phase order of RunDecentralized).
func pullAggrGradsWithRetry(ctx context.Context, s *Server, q int) ([]tensor.Vector, error) {
	backoff := 2 * time.Millisecond
	for {
		aggrs, err := s.GetAggrGrads(ctx, q)
		if err == nil {
			return aggrs, nil
		}
		if !errors.Is(err, rpc.ErrQuorum) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("core: contract quorum: %w", ctx.Err())
		//lint:allow wallclock(quorum-retry pacing of the cross-process peer node, which the simulator never drives; affects liveness only, never a deterministic artifact)
		case <-time.After(backoff):
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}
