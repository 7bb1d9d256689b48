package main

import (
	"fmt"
	"sort"

	"garfield/internal/scenario"
)

// Every workload trains the same task: live engine, fp64 wire, linear
// softmax over 1000 features and 100 classes (d = 100,100), 17 workers of
// which 3 are declared Byzantine (and behave honestly: the benchmark
// measures the cost of tolerating them, not an attack). Separation 0.1
// keeps final accuracy between chance and 1.0, so it can move either way.
// The learning rate is 0.001: at the default 0.1 a single-sample step
// saturates the softmax; at 0.001 every workload ends near 0.72 accuracy
// with a run-to-run spread of about 2.5%.
const (
	taskIn      = 1000
	taskClasses = 100
	taskNW      = 17
	taskFW      = 3
	taskTrain   = 4250
	taskTest    = 2000
	taskSep     = 0.1
	taskLR      = 0.001
)

// workload is one named benchmark input. rate is the nominal rounds per
// second on the reference host; a run of s seconds requests ceil(s*rate)
// rounds, so parent and change do the same work whatever their speed.
type workload struct {
	name string
	why  string
	rate float64
	spec func(seed uint64) scenario.Spec
}

func baseSpec(name string, seed uint64) scenario.Spec {
	return scenario.Spec{
		Name: name, NW: taskNW, FW: taskFW,
		Model: scenario.ModelSpec{Kind: scenario.ModelLinear, In: taskIn, Classes: taskClasses},
		Dataset: scenario.DatasetSpec{
			Name: "roundbench", Dim: taskIn, Classes: taskClasses,
			Train: taskTrain, Test: taskTest,
			Separation: taskSep, Noise: 1.0, Seed: seed,
		},
		LR:   scenario.LRSpec{Kind: scenario.LRConstant, Base: taskLR},
		Seed: seed,
		// Each measured window sets its own round count.
		Iterations: warmRounds,
	}
}

var workloads = []workload{
	{
		name: "ssmw-median-b32",
		why:  "paper default single-server path; model compute and median dominate, rpc is small",
		rate: 9,
		spec: func(seed uint64) scenario.Spec {
			sp := baseSpec("ssmw-median-b32", seed)
			sp.Topology, sp.Rule, sp.BatchSize = scenario.TopoSSMW, "median", 32
			return sp
		},
	},
	{
		name: "msmw-median-b4",
		why:  "replicated servers (nps 4, fps 1): server-to-server model pulls and concurrent replicas",
		rate: 8,
		spec: func(seed uint64) scenario.Spec {
			sp := baseSpec("msmw-median-b4", seed)
			sp.Topology, sp.Rule, sp.ModelRule, sp.BatchSize = scenario.TopoMSMW, "median", "median", 4
			sp.NPS, sp.FPS = 4, 1
			return sp
		},
	},
	{
		name: "sharded-median-s4",
		why:  "sharded median over 4 replicas: phase A ranged pulls and phase B part exchange",
		rate: 15,
		spec: func(seed uint64) scenario.Spec {
			sp := baseSpec("sharded-median-s4", seed)
			sp.Topology, sp.Rule, sp.BatchSize = scenario.TopoSharded, "median", 1
			sp.NPS, sp.FPS, sp.Shards = 4, 0, 4
			// As in the shard-median preset: every ranged pull waits for all
			// workers. With q = n - f each of the round's four sequential
			// pulls cancels three stragglers, whose torn-down connections
			// are re-dialled, and the round time spreads by a fifth from
			// run to run.
			sp.SyncQuorum = true
			return sp
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
