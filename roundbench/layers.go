package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"garfield/internal/gar"
	"garfield/internal/rpc"
	"garfield/internal/scenario"
	"garfield/internal/tensor"
)

// replayReps is how many timed replays of one captured round the GAR
// metrics take the median of.
const replayReps = 9

// runTraced runs an untraced, a traced and another untraced window on one
// cluster, a quarter, a half and a quarter of the rounds: drift of the host
// over the run then cancels, to first order, out of the comparison of the
// traced window with the untraced ones. Spans and counters come from the
// traced window, runtime counters from the untraced ones (tracing
// allocates), GAR busy time from a replay of captured replies.
func runTraced(wl workload, seed uint64, rounds int) (result, []Span, error) {
	b, _, err := setUp(wl, seed)
	if err != nil {
		return result{}, nil, err
	}
	defer b.c.Close()
	quarter := max(rounds/4, warmRounds+2)

	before := b.window(quarter)
	b.tr.start()
	traced := b.window(2 * quarter)
	b.tr.stop()
	after := b.window(quarter)
	bad := b.check(traced)
	for _, w := range []window{before, after} {
		if w.err != nil {
			bad = append(bad, "untraced window failed: "+w.err.Error())
		}
	}

	spans := b.tr.Spans()
	a := newAttribution(b, traced, spans)
	m := a.metrics()
	gradMS, modelMS, err := b.replay()
	if err != nil {
		bad = append(bad, "gar replay: "+err.Error())
	}
	a.garMetrics(m, gradMS, modelMS)
	runtimeMetrics(m, before, after)

	plainRate, tracedRate := meanRate(before, after), meanRate(traced)
	m["trace.updates_per_s"] = metric{tracedRate, "1/s"}
	m["trace.untraced_updates_per_s"] = metric{plainRate, "1/s"}
	m["trace.overhead_updates_per_s"] = metric{plainRate - tracedRate, "1/s"}
	plainRounds := append(before.intervalsMS(), after.intervalsMS()...)
	m["trace.untraced_round_ms_p50"] = metric{quantile(plainRounds, 0.5), "ms"}
	m["trace.untraced_round_ms_p90"] = metric{quantile(plainRounds, 0.9), "ms"}
	m["trace.span_sum_ms_p50"] = metric{quantile(a.spanSums, 0.5), "ms"}

	res, err := finish(traced, bad, m)
	return res, append(spans, a.gaps...), err
}

// meanRate is committed updates per second of round time over the windows.
func meanRate(ws ...window) float64 {
	var intervals, committed, attempted int
	var secs float64
	for _, w := range ws {
		if len(w.starts) < 2 {
			continue
		}
		intervals += len(w.starts) - 1
		secs += w.starts[len(w.starts)-1].Sub(w.starts[0]).Seconds()
		committed += w.committed()
		attempted += w.attempted
	}
	return safeDiv(float64(intervals), secs) * safeDiv(float64(committed), float64(attempted))
}

// attribution splits the traced window's rounds into layer spans.
type attribution struct {
	b       *bench
	w       window
	spans   []Span
	byName  map[string][]Span
	updates float64
	sharded bool

	roundStarts []int64 // observed replica's round starts, tracer time
	spanSums    []float64
	gaps        []Span // derived post-pull spans, written with the log
	unattr      []float64
	postPull    []float64
	phaseA      []float64
	phaseB      []float64
}

func newAttribution(b *bench, w window, spans []Span) *attribution {
	a := &attribution{
		b: b, w: w, spans: spans, byName: make(map[string][]Span),
		updates: float64(w.committed()),
		sharded: b.sp.Topology == scenario.TopoSharded,
	}
	for _, s := range spans {
		a.byName[s.Name] = append(a.byName[s.Name], s)
	}
	for _, t := range w.starts {
		a.roundStarts = append(a.roundStarts, int64(t.Sub(b.tr.epoch)))
	}
	a.walkRounds()
	return a
}

// onRoundPath reports whether a pull span sits on the observed round's
// critical path: the observed replica's own pulls, or every replica's pulls
// on the sharded topology, whose round is driven by one goroutine through
// all replicas' callers in turn.
func (a *attribution) onRoundPath(s Span) bool {
	return strings.HasPrefix(s.Name, "rpc.") && (a.sharded || s.Replica == observedReplica)
}

// walkRounds cuts the round-path pulls into rounds. Within a round the pulls
// run one after another, and each pull is followed by a gap until the next
// pull starts (GAR, update, assembly, barrier); pulls plus gaps tile the
// round, so their per-round sum is the traced round time.
func (a *attribution) walkRounds() {
	var pulls []Span
	for _, s := range a.spans {
		if a.onRoundPath(s) {
			pulls = append(pulls, s)
		}
	}
	sort.Slice(pulls, func(i, j int) bool { return pulls[i].Start < pulls[j].Start })
	rs := a.roundStarts
	j := 0
	for k := 0; k+1 < len(rs); k++ {
		lo, hi := rs[k], rs[k+1]
		for j < len(pulls) && pulls[j].Start < lo {
			j++
		}
		var pulled, tiled int64
		firstPart := int64(-1)
		for ; j < len(pulls) && pulls[j].Start < hi; j++ {
			p := pulls[j]
			next := hi
			if j+1 < len(pulls) && pulls[j+1].Start < next {
				next = pulls[j+1].Start
			}
			gap := next - p.End
			if gap < 0 {
				gap = 0
			}
			pulled += p.dur()
			tiled += p.dur() + gap
			suffix := strings.TrimPrefix(strings.TrimPrefix(p.Name, "rpc.pull_"), "rpc.call_")
			a.gaps = append(a.gaps, Span{
				Name: "core.post_" + suffix, Start: p.End, End: p.End + gap,
				Step: p.Step, Replica: p.Replica, Shard: p.Shard,
			})
			if suffix == "gradient" {
				a.postPull = append(a.postPull, float64(gap)/1e6)
			}
			if suffix == "part" && firstPart < 0 {
				firstPart = p.Start
			}
		}
		a.spanSums = append(a.spanSums, float64(tiled)/1e6)
		a.unattr = append(a.unattr, float64(hi-lo-pulled)/1e6)
		if a.sharded && firstPart >= 0 {
			a.phaseA = append(a.phaseA, float64(firstPart-lo)/1e6)
			a.phaseB = append(a.phaseB, float64(hi-firstPart)/1e6)
		}
	}
}

func (a *attribution) durations(name string) []float64 {
	ss := a.byName[name]
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// selfTimes returns each span's duration minus the part of it covered by
// its children.
func (a *attribution) selfTimes(name, childName string) []float64 {
	children := make(map[int64][]Span)
	for _, c := range a.byName[childName] {
		if c.Parent != 0 {
			children[c.Parent] = append(children[c.Parent], c)
		}
	}
	ss := a.byName[name]
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()-covered(s, children[s.ID])) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, children []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (a *attribution) perUpdate(x float64) float64 { return safeDiv(x, a.updates) }

func (a *attribution) metrics() map[string]metric {
	grads := a.durations("model.gradient")
	var wire rpc.WireStats
	if a.w.err == nil {
		wire = a.w.res.Wire
	}
	m := map[string]metric{
		"model.gradient_ms_p50":           {quantile(grads, 0.5), "ms"},
		"model.gradient_ms_per_update":    {a.perUpdate(sum(grads)), "ms"},
		"model.gradient_calls_per_update": {a.perUpdate(float64(len(grads))), "count"},
		"core.serve_gradient_ms_p50":      {quantile(a.durations("core.serve_gradient"), 0.5), "ms"},
		"core.serve_gradient_self_ms_p50": {quantile(a.selfTimes("core.serve_gradient", "model.gradient"), 0.5), "ms"},
		"core.post_pull_ms_p50":           {quantile(a.postPull, 0.5), "ms"},
		"core.serve_model_ms_p50":         {quantile(a.durations("core.serve_model"), 0.5), "ms"},
		"rpc.pull_gradient_ms_p50":        {quantile(a.durations("rpc.pull_gradient"), 0.5), "ms"},
		"rpc.pull_gradient_ms_p90":        {quantile(a.durations("rpc.pull_gradient"), 0.9), "ms"},
		"rpc.pull_self_ms_p50":            {quantile(a.selfTimes("rpc.pull_gradient", "core.serve_gradient"), 0.5), "ms"},
		"rpc.pull_model_ms_p50":           {quantile(a.durations("rpc.pull_model"), 0.5), "ms"},
		"rpc.calls_per_update":            {a.perUpdate(float64(wire.Calls)), "count"},
		"rpc.bytes_in_per_update":         {a.perUpdate(float64(wire.BytesIn)), "B"},
		"rpc.bytes_out_per_update":        {a.perUpdate(float64(wire.BytesOut)), "B"},
		"rpc.pull_errors":                 {float64(a.b.tr.pullErrors.Load()), "count"},
		"rpc.retries":                     {float64(wire.Retries), "count"},
		"rpc.declined_replies":            {float64(a.b.tr.declined.Load()), "count"},
		"transport.dials_per_update":      {a.perUpdate(float64(a.w.dials)), "count"},
		"shard.phase_a_ms_p50":            {quantile(a.phaseA, 0.5), "ms"},
		"shard.phase_b_ms_p50":            {quantile(a.phaseB, 0.5), "ms"},
		"shard.serve_part_ms_p50":         {quantile(a.durations("core.serve_part"), 0.5), "ms"},
		"shard.reply_bytes_per_update":    {a.perUpdate(float64(wire.ShardReplyBytes)), "B"},
		"shard.aborts":                    {0, "count"},
		"shard.failovers":                 {0, "count"},
	}
	if a.w.err == nil {
		m["shard.aborts"] = metric{float64(a.w.res.ShardAborts), "count"}
		m["shard.failovers"] = metric{float64(a.w.res.ShardFailovers), "count"}
	}
	return m
}

// garMetrics adds the replayed GAR busy times and what the round spent
// outside pulls and GAR work.
func (a *attribution) garMetrics(m map[string]metric, gradMS []float64, modelMS float64) {
	perRound := sum(gradMS) + modelMS
	perAggregate := safeDiv(sum(gradMS), float64(len(gradMS)))
	m["gar.aggregate_ms"] = metric{sum(gradMS), "ms"}
	m["gar.model_aggregate_ms"] = metric{modelMS, "ms"}
	m["core.post_pull_wait_ms"] = metric{quantile(a.postPull, 0.5) - perAggregate, "ms"}
	un := make([]float64, len(a.unattr))
	for i, u := range a.unattr {
		un[i] = u - perRound
	}
	m["core.unattributed_ms"] = metric{quantile(un, 0.5), "ms"}
}

// replay times the GAR on the round-path replies captured in the traced
// window: every gradient aggregation of one round (one per shard on the
// sharded topology) and, on MSMW, the model aggregation.
func (b *bench) replay() (gradMS []float64, modelMS float64, err error) {
	caps := b.tr.capturedPulls()
	sort.Slice(caps, func(i, j int) bool {
		if caps[i].replica != caps[j].replica {
			return caps[i].replica < caps[j].replica
		}
		return caps[i].shard < caps[j].shard
	})
	sharded := b.sp.Topology == scenario.TopoSharded
	for _, c := range caps {
		if !sharded && c.replica != observedReplica {
			continue
		}
		switch c.kind {
		case rpc.KindGetGradient:
			t, err := replayMS(b.sp.Rule, b.sp.FW, c.vecs)
			if err != nil {
				return nil, 0, err
			}
			gradMS = append(gradMS, t)
		case rpc.KindGetModel:
			rule := b.sp.ModelRule
			if rule == "" {
				rule = gar.NameMedian
			}
			t, err := replayMS(rule, b.sp.FPS, c.vecs)
			if err != nil {
				return nil, 0, err
			}
			modelMS += t
		}
	}
	return gradMS, modelMS, nil
}

func replayMS(rule string, f int, vecs []tensor.Vector) (float64, error) {
	r, err := gar.New(rule, len(vecs), f)
	if err != nil {
		return 0, err
	}
	var out tensor.Vector
	times := make([]float64, 0, replayReps)
	for i := 0; i <= replayReps; i++ {
		t0 := time.Now()
		out, err = r.AggregateInto(out, vecs)
		if err != nil {
			return 0, err
		}
		if i > 0 { // the first call sizes the rule's scratch
			times = append(times, float64(time.Since(t0))/1e6)
		}
	}
	return quantile(times, 0.5), nil
}

// runtimeMetrics reads the Go runtime over the untraced windows.
func runtimeMetrics(m map[string]metric, ws ...window) {
	var up, cpu, wall, mallocs, bytes, gcs, pauseMS float64
	for _, w := range ws {
		up += float64(w.committed())
		cpu += w.cpu.Seconds()
		wall += w.wall.Seconds()
		mallocs += float64(w.mem1.Mallocs - w.mem0.Mallocs)
		bytes += float64(w.mem1.TotalAlloc - w.mem0.TotalAlloc)
		gcs += float64(w.mem1.NumGC - w.mem0.NumGC)
		pauseMS += float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6
	}
	m["runtime.cpu_util"] = metric{safeDiv(cpu, wall*float64(runtime.GOMAXPROCS(0))), "ratio"}
	m["runtime.allocs_per_update"] = metric{safeDiv(mallocs, up), "count"}
	m["runtime.alloc_bytes_per_update"] = metric{safeDiv(bytes, up), "B"}
	m["runtime.gc_cycles_per_update"] = metric{safeDiv(gcs, up), "count"}
	m["runtime.gc_pause_ms_per_update"] = metric{safeDiv(pauseMS, up), "ms"}
}
