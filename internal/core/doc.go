// Package core implements Garfield's main objects and applications
// (Sections 3.2 and 5 of the paper): the Server and Worker node objects,
// their Byzantine variants, the get_gradients / get_models / get_aggr_grads
// communication abstractions, and the training protocols built from them —
// vanilla, AggregaThor-style, crash-tolerant, SSMW, MSMW and decentralized
// learning.
//
// # The Cluster contract
//
// Cluster is a fully-wired in-process deployment built from one Config:
// NewCluster shards the training data (IID or by label), spawns nw Worker
// nodes and nps Server replicas, and serves each over the RPC layer on a
// fault-injecting in-memory network (transport.Faulty over transport.Mem).
// Byzantine roles go to the last fw workers and last fps servers — a
// Byzantine node is the same object with a non-nil attack.Attack corrupting
// what it serves, exactly the paper's inheritance structure.
//
// A Cluster is driven by the protocol runners — RunVanilla, RunSSMW,
// RunAggregaThor, RunCrashTolerant, RunMSMW, RunDecentralized — each of
// which executes the corresponding listing's training loop and returns a
// Result (accuracy curves, throughput, a per-phase latency breakdown).
// RunAsyncSSMW and RunAsyncMSMW run the bounded-staleness asynchronous
// engine instead (see async.go): no lockstep rounds, per-worker gradient
// queues with staleness tags, aggregation over the q = nw - fw freshest
// estimates with stale-gradient damping. Runners may be invoked repeatedly
// on one cluster: model state persists, so callers can interleave training
// segments with fault injection (CrashServer, CrashWorker, DelayWorker,
// SlowWorker), which is how the scenario engine's declarative fault
// schedules execute. Close shuts every node down; it must be called exactly
// once.
//
// Nodes communicate exclusively through the pull-based RPC layer
// (internal/rpc) over an injectable transport, so the same protocol code
// runs over in-memory pipes in tests, over loopback TCP in
// cmd/garfield-node, and under fault injection in the Byzantine experiments.
//
// # Aggregation in the steady state
//
// Aggregate is the one-shot convenience mirroring the paper's inline
// gar(gradients, f) call. Training loops instead construct an Aggregator,
// which owns the rule's scratch arena and reuses one output vector across
// iterations via the AggregateInto convention of internal/gar — per-step
// aggregation then allocates nothing (Section 4.4's memory management,
// threaded through every protocol loop).
//
// # Deterministic mode
//
// Config.Deterministic trades a little synchronization for bit-identical
// runs at a fixed seed: workers compute one gradient estimate per step and
// serve it to every puller (the paper's broadcast semantics), servers
// aggregate pulled vectors in canonical peer order rather than arrival
// order, and the replicated protocols run each round phase at their
// replicas in index order rather than concurrently. Replicated topologies
// additionally need SyncQuorum — with q < n the responding subset itself
// is timing-dependent. The scenario sweep runner uses this mode to make its
// artifacts reproducible byte for byte.
package core
