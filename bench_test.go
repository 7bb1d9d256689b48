package garfield_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"garfield"
	"garfield/internal/compress"
	"garfield/internal/data"
	"garfield/internal/experiments"
	"garfield/internal/gar"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/shard"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// One benchmark per paper table/figure: each run regenerates the experiment
// end to end at quick scale (the same generators back `garfield-bench` at
// full scale). Shapes, not absolute numbers, are the reproduction target;
// see EXPERIMENTS.md.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := experiments.Options{Quick: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Models(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFig3aGARsByN(b *testing.B)           { benchExperiment(b, "fig3a") }
func BenchmarkFig3bGARsByD(b *testing.B)           { benchExperiment(b, "fig3b") }
func BenchmarkFig4aConvergenceTF(b *testing.B)     { benchExperiment(b, "fig4a") }
func BenchmarkFig4bConvergencePT(b *testing.B)     { benchExperiment(b, "fig4b") }
func BenchmarkFig5aRandomAttack(b *testing.B)      { benchExperiment(b, "fig5a") }
func BenchmarkFig5bReversedAttack(b *testing.B)    { benchExperiment(b, "fig5b") }
func BenchmarkFig6aSlowdownCPU(b *testing.B)       { benchExperiment(b, "fig6a") }
func BenchmarkFig6bSlowdownGPU(b *testing.B)       { benchExperiment(b, "fig6b") }
func BenchmarkFig7BreakdownCPU(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8aScalabilityCPU(b *testing.B)    { benchExperiment(b, "fig8a") }
func BenchmarkFig8bScalabilityGPU(b *testing.B)    { benchExperiment(b, "fig8b") }
func BenchmarkFig9aDecCommByN(b *testing.B)        { benchExperiment(b, "fig9a") }
func BenchmarkFig9bDecCommByD(b *testing.B)        { benchExperiment(b, "fig9b") }
func BenchmarkFig10aByzWorkers(b *testing.B)       { benchExperiment(b, "fig10a") }
func BenchmarkFig10bByzServers(b *testing.B)       { benchExperiment(b, "fig10b") }
func BenchmarkFig11aTimeToAccuracyTF(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11bTimeToAccuracyPT(b *testing.B) { benchExperiment(b, "fig11b") }
func BenchmarkFig12aMDAConvergence(b *testing.B)   { benchExperiment(b, "fig12a") }
func BenchmarkFig12bMDAOverTime(b *testing.B)      { benchExperiment(b, "fig12b") }
func BenchmarkFig13aFwSweepCPU(b *testing.B)       { benchExperiment(b, "fig13a") }
func BenchmarkFig13bFwSweepGPU(b *testing.B)       { benchExperiment(b, "fig13b") }
func BenchmarkFig14aFpsSweepCPU(b *testing.B)      { benchExperiment(b, "fig14a") }
func BenchmarkFig14bFpsSweepGPU(b *testing.B)      { benchExperiment(b, "fig14b") }
func BenchmarkFig15SlowdownPT(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16BreakdownPT(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkTable2Alignment(b *testing.B)        { benchExperiment(b, "table2") }

// Extension experiments (ablations beyond the paper; see ARCHITECTURE.md,
// "The consumers").
func BenchmarkExtMomentumVariance(b *testing.B) { benchExperiment(b, "ext-momentum") }
func BenchmarkExtGARsUnderAttack(b *testing.B)  { benchExperiment(b, "ext-gars") }
func BenchmarkExtStaleFault(b *testing.B)       { benchExperiment(b, "ext-stale") }
func BenchmarkExtLiveThroughput(b *testing.B)   { benchExperiment(b, "ext-throughput") }

// --- GAR micro-benchmarks (the raw numbers behind Figure 3) ---

func benchRule(b *testing.B, name string, n, f, d int) {
	b.Helper()
	r, err := gar.New(name, n, f)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		inputs[i] = rng.NormalVector(d, 0, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Aggregate(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGARAverage(b *testing.B)     { benchRule(b, gar.NameAverage, 17, 0, 100_000) }
func BenchmarkGARMedian(b *testing.B)      { benchRule(b, gar.NameMedian, 17, 3, 100_000) }
func BenchmarkGARTrimmedMean(b *testing.B) { benchRule(b, gar.NameTrimmedMean, 17, 3, 100_000) }
func BenchmarkGARKrum(b *testing.B)        { benchRule(b, gar.NameKrum, 17, 3, 100_000) }
func BenchmarkGARMultiKrum(b *testing.B)   { benchRule(b, gar.NameMultiKrum, 17, 3, 100_000) }
func BenchmarkGARMDA(b *testing.B)         { benchRule(b, gar.NameMDA, 17, 3, 100_000) }
func BenchmarkGARBulyan(b *testing.B)      { benchRule(b, gar.NameBulyan, 17, 3, 100_000) }

// --- Model micro-benchmarks (the worker-side compute of a training round) ---

// BenchmarkLinearSoftmaxGradient times one worker gradient of the linear
// softmax model the round benchmarks train (in = 1000, classes = 100, so
// d = 100,100), at the batch sizes their workloads use.
func BenchmarkLinearSoftmaxGradient(b *testing.B) {
	const in, classes = 1000, 100
	m, err := model.NewLinearSoftmax(in, classes)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	params := rng.NormalVector(m.Dim(), 0, 0.01)
	for _, bs := range []int{1, 4, 32} {
		batch := data.Batch{}
		for i := 0; i < bs; i++ {
			batch.Features = append(batch.Features, rng.NormalVector(in, 0, 1))
			batch.Labels = append(batch.Labels, rng.Intn(classes))
		}
		b.Run(fmt.Sprintf("b%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Gradient(params, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedAggregation times the per-replica critical path of one
// sharded median round at paper scale (d = 1M, n = 7, f = 2). The flat case
// is a single box aggregating all d coordinates; shards=S times the widest
// shard's slice — the work each replica performs concurrently in a real
// deployment, so throughput relative to flat is the protocol's scaling claim
// (coordinate-wise rules are O(width), so 4 shards should run close to 4x).
func BenchmarkShardedAggregation(b *testing.B) {
	const n, f, d = 7, 2, 1_000_000
	rng := tensor.NewRNG(7)
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		inputs[i] = rng.NormalVector(d, 0, 1)
	}
	r, err := gar.New(gar.NameMedian, n, f)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("flat", func(b *testing.B) {
		dst := make(tensor.Vector, d)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.AggregateInto(dst, inputs); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			plan, err := shard.NewPlan(d, shards)
			if err != nil {
				b.Fatal(err)
			}
			lo, hi := plan.Range(0) // shard 0 is always a widest shard
			views := make([]tensor.Vector, n)
			for j, v := range inputs {
				views[j] = v[lo:hi]
			}
			dst := make(tensor.Vector, hi-lo)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.AggregateInto(dst, views); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Design ablations of the hot paths in PERFORMANCE.md, "Where each hot
// path lives" ---

// BenchmarkAblationMedian compares the parallel coordinate-sharded median
// (the paper's CPU strategy, Section 4.3) against a sequential baseline.
func BenchmarkAblationMedian(b *testing.B) {
	const n, f, d = 17, 3, 1_000_000
	rng := tensor.NewRNG(7)
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		inputs[i] = rng.NormalVector(d, 0, 1)
	}
	b.Run("parallel", func(b *testing.B) {
		r, err := gar.NewMedian(n, f)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := r.Aggregate(inputs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		r, err := gar.NewSequentialMedian(n, f)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := r.Aggregate(inputs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBulyanInner compares Bulyan's inner selection rules
// (Multi-Krum, as evaluated in the paper, vs Median).
func BenchmarkAblationBulyanInner(b *testing.B) {
	const n, f, d = 15, 3, 100_000
	rng := tensor.NewRNG(7)
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		inputs[i] = rng.NormalVector(d, 0, 1)
	}
	for _, inner := range []string{gar.NameMultiKrum, gar.NameMedian} {
		inner := inner
		b.Run(inner, func(b *testing.B) {
			r, err := gar.NewBulyanInner(n, f, inner)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := r.Aggregate(inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRPCPullFirstQ measures the first-q-of-n pull primitive that
// implements get_gradients(t, q), over the in-memory transport with the
// protocol-default pooled client.
func BenchmarkRPCPullFirstQ(b *testing.B) {
	net := transport.NewMem()
	const peers = 9
	const d = 10_000
	rng := tensor.NewRNG(3)
	vec := rng.NormalVector(d, 0, 1)
	addrs := make([]string, peers)
	for i := range addrs {
		addrs[i] = "peer-" + string(rune('a'+i))
		srv, err := rpc.Serve(net, addrs[i], rpc.HandlerFunc(func(rpc.Request) rpc.Response {
			return rpc.Response{OK: true, Vec: vec}
		}))
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
	}
	client := rpc.NewPooledClient(net)
	defer client.Close()
	req := rpc.Request{Kind: rpc.KindGetModel}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.PullFirstQ(context.Background(), addrs, peers-2, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorCodec measures the tensor wire (de)serialization cost the
// paper identifies as non-negligible (Section 4.1). The decode receiver is
// reused across iterations — the steady-state shape of the RPC server loop —
// so a capacity-reusing UnmarshalBinary makes the round trip allocation-free.
func BenchmarkVectorCodec(b *testing.B) {
	rng := tensor.NewRNG(5)
	v := rng.NormalVector(1_000_000, 0, 1)
	buf := make([]byte, v.EncodedSize())
	var w tensor.Vector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.EncodeTo(buf); err != nil {
			b.Fatal(err)
		}
		if err := w.UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Gradient-compression codec benchmarks (internal/compress) ---

// benchCodec measures one compress+decode round trip of a 1M-coordinate
// gradient — the serve-side cost a worker pays per pull reply plus the
// client-side decompression, the pair that must stay cheap relative to the
// network bytes it saves. The compressor and decode receiver are reused
// across iterations (the steady-state shape of the pull loop).
func benchCodec(b *testing.B, enc compress.Encoding, k int) {
	b.Helper()
	const d = 1_000_000
	rng := tensor.NewRNG(5)
	v := rng.NormalVector(d, 0, 1)
	comp, err := compress.NewCompressor(enc, k)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, comp.MaxEncodedSize(d))
	var out tensor.Vector
	// One warmup round trip grows the compressor scratch and the decode
	// receiver to size, so B/op reports the steady state instead of smearing
	// one-time setup allocations across b.N (at the default 1s benchtime the
	// smear once passed itself off as ~1.2MB/op on the top-k codec — see
	// TestCompressorSteadyStateZeroAlloc for the regression lock).
	payload := comp.Compress(buf[:0], v)
	if err := compress.Decode(&out, enc, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := comp.Compress(buf[:0], v)
		if err := compress.Decode(&out, enc, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(compress.FP64EncodedSize(d)))
}

func BenchmarkCompressFP64(b *testing.B) { benchCodec(b, compress.EncFP64, 0) }
func BenchmarkCompressFP16(b *testing.B) { benchCodec(b, compress.EncFP16, 0) }
func BenchmarkCompressInt8(b *testing.B) { benchCodec(b, compress.EncInt8, 0) }
func BenchmarkCompressTopK(b *testing.B) { benchCodec(b, compress.EncTopK, 10_000) }

// BenchmarkCompressedPull measures the full RPC pull with int8-compressed
// replies against the fp64 baseline of BenchmarkRPCPullFirstQ's shape: the
// wire moves ~7.8x fewer payload bytes per reply.
func BenchmarkCompressedPull(b *testing.B) {
	net := transport.NewMem()
	const d = 10_000
	rng := tensor.NewRNG(3)
	vec := rng.NormalVector(d, 0, 1)
	comp, err := compress.NewCompressor(compress.EncInt8, 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := rpc.Serve(net, "peer", rpc.HandlerFunc(func(req rpc.Request) rpc.Response {
		if req.Accept != compress.EncInt8 {
			return rpc.Response{OK: true, Vec: vec}
		}
		buf := compress.GetBuf(comp.MaxEncodedSize(d))
		return rpc.Response{OK: true, Enc: compress.EncInt8, Payload: comp.Compress(buf, vec), FreePayload: true}
	}))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := rpc.NewPooledClient(net)
	defer client.Close()
	req := rpc.Request{Kind: rpc.KindGetModel, Accept: compress.EncInt8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(context.Background(), "peer", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSSMWIteration measures one live SSMW training iteration over
// the in-memory cluster (communication + aggregation + update).
func BenchmarkLiveSSMWIteration(b *testing.B) {
	train, test, err := garfield.GenerateDataset(garfield.SyntheticSpec{
		Name: "bench", Dim: 32, Classes: 5, Train: 500, Test: 100,
		Separation: 1, Noise: 1, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	arch, err := garfield.NewLinearSoftmax(32, 5)
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := garfield.NewCluster(garfield.Config{
		Arch: arch, Train: train, Test: test,
		BatchSize: 16, NW: 7, FW: 1,
		Rule: garfield.RuleMedian, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ResetTimer()
	if _, err := cluster.RunSSMW(garfield.RunOptions{Iterations: b.N}); err != nil {
		b.Fatal(err)
	}
}
