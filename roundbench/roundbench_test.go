package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"garfield/internal/gar"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// The traced caller must keep the fused decode path (replies land in the
// caller's slots), report the inner client's byte accounting and release
// its pooled connections on Close.
func TestTracedCallerForwards(t *testing.T) {
	tr := newTracer()
	w := newBenchWiring(tr, observedReplica)
	want := tensor.Vector{1, 2, 3, 4}
	peers := []string{"worker-0", "worker-1"}
	for _, p := range peers {
		srv, err := w.Serve(p, rpc.HandlerFunc(func(rpc.Request) rpc.Response {
			return rpc.Response{OK: true, Vec: want}
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	c := w.NewCaller(observedReplica)
	arena := gar.NewReplyArena(len(peers))
	for i := range peers {
		*arena.ReplySlot(i) = tensor.New(len(want))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tr.start()
	for round := 0; round < 2; round++ {
		req := rpc.Request{Kind: rpc.KindGetGradient, Step: uint32(round), Vec: tensor.Vector{0}}
		replies, err := c.PullFirstQInto(ctx, peers, len(peers), req, arena)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range replies {
			if !r.Vec.Equal(want) {
				t.Fatalf("reply %v, want %v", r.Vec, want)
			}
			aliased := false
			for i := range peers {
				if &(*arena.ReplySlot(i))[0] == &r.Vec[0] {
					aliased = true
				}
			}
			if !aliased {
				t.Fatalf("round %d: reply from %s was not decoded into a caller slot", round, r.From)
			}
		}
	}
	tr.stop()

	stats, ok := c.(interface{ Stats() rpc.WireStats })
	if !ok {
		t.Fatal("traced caller does not expose Stats")
	}
	if s := stats.Stats(); s.Calls != 4 || s.Replies != 4 || s.BytesIn == 0 || s.BytesOut == 0 {
		t.Fatalf("forwarded stats %+v, want 4 calls and 4 replies with bytes both ways", s)
	}
	if got := len(tr.Spans()); got != 2+4 {
		t.Fatalf("recorded %d spans, want 2 pulls and 4 serves", got)
	}
	if n := len(w.rounds.snapshot()); n != 2 {
		t.Fatalf("round clock saw %d round starts, want 2", n)
	}

	closer, ok := c.(interface{ Close() error })
	if !ok {
		t.Fatal("traced caller does not expose Close")
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, peers[0], rpc.Request{Kind: rpc.KindPing}); err == nil {
		t.Fatal("call after Close succeeded: pooled connections were not released")
	}
}

// Tracing must not change what the program computes: a traced and an
// untraced run of the same workload and seed end at the same accuracy with
// the same number of replies, and every traced gradient is linked to the
// serve span it ran under, which is linked to its pull.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two d=100k clusters")
	}
	wl, err := findWorkload("ssmw-median-b32")
	if err != nil {
		t.Fatal(err)
	}
	const seed, rounds = 7, 6
	run := func(traced bool) (window, []Span) {
		b, err := newBench(wl, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer b.c.Close()
		if traced {
			b.tr.start()
		}
		w := b.window(rounds)
		b.tr.stop()
		if w.err != nil {
			t.Fatal(w.err)
		}
		if bad := b.check(w); len(bad) > 0 {
			t.Fatalf("output checks failed: %v", bad)
		}
		return w, b.tr.Spans()
	}
	plain, _ := run(false)
	traced, spans := run(true)
	if a, b := plain.res.Accuracy.Last(), traced.res.Accuracy.Last(); a != b {
		t.Fatalf("final accuracy untraced %v, traced %v", a, b)
	}
	if a, b := plain.res.Wire.Replies, traced.res.Wire.Replies; a != b {
		t.Fatalf("wire replies untraced %d, traced %d", a, b)
	}

	byID := make(map[int64]Span, len(spans))
	counts := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		counts[s.Name]++
	}
	for _, s := range spans {
		switch s.Name {
		case "model.gradient":
			if p, ok := byID[s.Parent]; !ok || p.Name != "core.serve_gradient" {
				t.Fatalf("gradient span %+v is not linked to a serve span", s)
			}
		case "core.serve_gradient":
			if p, ok := byID[s.Parent]; !ok || p.Name != "rpc.pull_gradient" || p.Step != s.Step {
				t.Fatalf("serve span %+v is not linked to its pull", s)
			}
		}
	}
	if counts["rpc.pull_gradient"] != rounds || counts["core.serve_gradient"] != rounds*taskNW || counts["model.gradient"] != rounds*taskNW {
		t.Fatalf("span counts %v, want %d pulls and %d serves and gradients", counts, rounds, rounds*taskNW)
	}
}

// Each mode prints exactly the metrics BENCHMARK.json declares for it, with
// the declared units, and passes its own output checks.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit string
	}
	var bench struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for mode, want := range map[string][]declared{"0": bench.EndToEnd, "1": bench.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "sharded-median-s4", "--seed", "3", "--seconds", "1",
			"--trace", mode, "--spans", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", mode, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("trace %s: result %+v\n%s", mode, res, errOut.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: printed %d metrics, BENCHMARK.json declares %d", mode, len(res.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s printed as %+v, declared unit %q", mode, d.Name, m, d.Unit)
			}
		}
	}
}
