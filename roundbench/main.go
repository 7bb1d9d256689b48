// Command roundbench is the repository's benchmark: it runs one named
// workload of live Garfield training rounds on the in-memory cluster and
// prints its metrics, one JSON object on the last line of standard output.
//
//	roundbench --workload ssmw-median-b32 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it sets the workload up (timed as setup_s) and runs its
// rounds with tracing off, reporting the end-to-end metrics. With --trace 1
// it runs untraced, traced and untraced windows on one cluster and reports
// per-layer metrics, writing the traced window's spans as JSONL under
// --spans. run.py builds and runs it; WORKLOADS.md says why each workload
// exists and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"garfield/internal/core"
	"garfield/internal/scenario"
)

const (
	// setups is how many times a run builds its cluster from scratch;
	// setup_s is the median. Only the last cluster is measured.
	setups = 3
	// warmRounds run before any measurement: dials, pool and arena growth.
	warmRounds = 3
	// minRounds keeps at least 100 round intervals in a run.
	minRounds = 111
	// rateSegments is how many stretches updates_per_s takes the median of.
	rateSegments = 5
	// observedReplica is the replica whose rounds are timed: the single
	// server, the first honest MSMW replica and the first sharded replica.
	observedReplica = "server-0"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("roundbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed (data, sharding, init, sampling)")
	seconds := fs.Int("seconds", 15, "nominal measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span JSONL")
	commit := fs.String("commit", "unknown", "source revision recorded in the host line")
	list := fs.Bool("list", false, "list workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%s\t%s\n", w.name, w.why)
		}
		return 0
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "roundbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	host := hostInfo(*commit, wl.name, *seed, *seconds, *trace == 1)
	if err := json.NewEncoder(stdout).Encode(map[string]Host{"host": host}); err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 1
	}

	rounds := int(math.Ceil(float64(*seconds) * wl.rate))
	var res result
	if *trace == 1 {
		var spanLog []Span
		res, spanLog, err = runTraced(wl, *seed, rounds)
		if err == nil && len(spanLog) > 0 {
			path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
			err = writeJSONL(path, spanLog)
		}
	} else {
		res, err = runEndToEnd(wl, *seed, rounds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 1
	}
	printTable(stderr, wl.name, res)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 1
	}
	return 0
}

// bench is one set-up cluster of a workload.
type bench struct {
	sp     scenario.Spec
	c      *core.Cluster
	tr     *Tracer
	wiring *benchWiring
}

// newBench generates the data, builds the cluster and runs the warm-up
// rounds: everything setup_s covers.
func newBench(wl workload, seed uint64) (*bench, error) {
	sp := wl.spec(seed)
	cfg, err := scenario.Materialize(sp)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	cfg.Arch = tracedModel{Model: cfg.Arch, tr: tr}
	w := newBenchWiring(tr, observedReplica)
	c, err := core.NewClusterWith(cfg, w)
	if err != nil {
		return nil, err
	}
	b := &bench{sp: sp, c: c, tr: tr, wiring: w}
	if w := b.window(warmRounds); w.err != nil {
		c.Close()
		return nil, fmt.Errorf("warm-up: %w", w.err)
	}
	return b, nil
}

// setUp builds the workload's cluster setups times and keeps the last one,
// returning the median set-up time in seconds.
func setUp(wl workload, seed uint64) (*bench, float64, error) {
	var b *bench
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.c.Close()
			b = nil
		}
		t0 := time.Now()
		nb, err := newBench(wl, seed)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	return b, quantile(times, 0.5), nil
}

// window is one measured protocol run.
type window struct {
	res       *core.Result
	err       error
	attempted int
	starts    []time.Time
	wall, cpu time.Duration
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	dials     int64
}

// committed is the number of updates the observed replica applied; an
// errored run committed none.
func (w window) committed() int {
	if w.err != nil || w.res == nil {
		return 0
	}
	return w.res.Updates
}

// intervalsMS are the gaps between consecutive round starts.
func (w window) intervalsMS() []float64 {
	out := make([]float64, 0, len(w.starts))
	for i := 1; i < len(w.starts); i++ {
		out = append(out, float64(w.starts[i].Sub(w.starts[i-1]))/1e6)
	}
	return out
}

// updatesPerSec is committed updates per second of round time: the median
// round rate over rateSegments consecutive stretches of the run (a stall
// in one stretch moves the median little), scaled by the share of rounds
// that committed.
func (w window) updatesPerSec() float64 {
	if len(w.starts) < 2 || w.attempted == 0 {
		return 0
	}
	n := len(w.starts) - 1 // intervals
	segs := min(rateSegments, n)
	rates := make([]float64, 0, segs)
	for k := 0; k < segs; k++ {
		lo, hi := k*n/segs, (k+1)*n/segs
		rates = append(rates, float64(hi-lo)/w.starts[hi].Sub(w.starts[lo]).Seconds())
	}
	return quantile(rates, 0.5) * float64(w.committed()) / float64(w.attempted)
}

func (b *bench) window(n int) window {
	sp := b.sp
	sp.Iterations = n
	w := window{attempted: n}
	b.wiring.rounds.reset()
	// Start every window from a collected heap, so set-up garbage and the
	// previous window's garbage are not charged to it.
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	dials0 := b.wiring.dials.n.Load()
	cpu0, t0 := cpuTime(), time.Now()
	w.res, w.err = scenario.RunOn(b.c, sp)
	w.wall, w.cpu = time.Since(t0), cpuTime()-cpu0
	w.dials = b.wiring.dials.n.Load() - dials0
	runtime.ReadMemStats(&w.mem1)
	w.starts = b.wiring.rounds.snapshot()
	return w
}

// check applies the output checks every run must pass and reports the
// failures.
func (b *bench) check(w window) []string {
	var bad []string
	if w.err != nil {
		return []string{"run failed: " + w.err.Error()}
	}
	if got := w.committed(); got != w.attempted {
		bad = append(bad, fmt.Sprintf("committed %d of %d requested rounds on a fault-free workload", got, w.attempted))
	}
	if len(w.starts) != w.attempted {
		bad = append(bad, fmt.Sprintf("observed %d round starts for %d rounds", len(w.starts), w.attempted))
	}
	for i := 0; i < b.c.Servers(); i++ {
		for _, x := range b.c.Server(i).Params() {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				bad = append(bad, fmt.Sprintf("server %d holds a non-finite model", i))
				break
			}
		}
	}
	if acc, chance := w.res.Accuracy.Last(), 1.0/taskClasses; !(acc > 2*chance) {
		bad = append(bad, fmt.Sprintf("final accuracy %.4f is not above twice chance (%.4f)", acc, 2*chance))
	}
	if w.committed() > 0 && w.res.Wire.BytesIn+w.res.Wire.BytesOut == 0 {
		bad = append(bad, "no bytes crossed the wire")
	}
	return bad
}

func runEndToEnd(wl workload, seed uint64, rounds int) (result, error) {
	b, setupS, err := setUp(wl, seed)
	if err != nil {
		return result{}, err
	}
	defer b.c.Close()
	w := b.window(max(rounds, minRounds))
	bad := b.check(w)
	committed := w.committed()
	iv := w.intervalsMS()
	m := map[string]metric{
		"updates_per_s":         {w.updatesPerSec(), "1/s"},
		"round_ms_p50":          {quantile(iv, 0.5), "ms"},
		"setup_s":               {setupS, "s"},
		"committed_round_share": {float64(committed) / float64(w.attempted), "ratio"},
	}
	if w.res != nil {
		m["final_accuracy"] = metric{w.res.Accuracy.Last(), "ratio"}
		if committed > 0 {
			m["wire_bytes_per_update"] = metric{float64(w.res.Wire.BytesIn+w.res.Wire.BytesOut) / float64(committed), "B"}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, fmt.Errorf("peak rss: %w", err)
	}
	m["peak_rss_mb"] = metric{rss, "MB"}
	return finish(w, bad, m)
}

// finish assembles the result line and reports the failed checks. A metric
// that could not be measured makes the run incorrect rather than reading as
// zero.
func finish(w window, bad []string, m map[string]metric) (result, error) {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, "metric "+name+" is not finite")
			m[name] = metric{0, v.Unit}
		}
	}
	for _, s := range bad {
		fmt.Fprintln(os.Stderr, "check failed:", s)
	}
	return result{
		Correct:   len(bad) == 0,
		Attempted: w.attempted,
		Failed:    w.attempted - w.committed(),
		Metrics:   m,
	}, nil
}

func printTable(out io.Writer, name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
