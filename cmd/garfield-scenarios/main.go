// Command garfield-scenarios is the CLI front end of the declarative
// scenario engine (internal/scenario): it lists and describes the named
// presets reproducing the paper's headline configurations, runs a single
// scenario from a preset, a JSON file or flag overrides, and executes
// scenario sweeps (cartesian matrices of topologies x GARs x attacks x f
// values) with CSV + JSON artifacts.
//
// Usage:
//
//	garfield-scenarios list
//	garfield-scenarios describe <preset>
//	garfield-scenarios run [-preset name | -spec file.json] [overrides] [-format table|csv]
//	garfield-scenarios sweep [-preset name | -spec file.json] -topologies a,b -rules c,d -attacks e,f [-fws 1,2] [-out dir] [-timing]
//	garfield-scenarios sim [-n 5000] [-fw 500] [-replicas 20] [-topology msmw] [-rule median] [-iters 10] [-latency-ms 1] [-jitter-ms 0.2] [-bandwidth-mbps 0] [-seed n] [-out dir]
//	garfield-scenarios chaos [-preset chaos-name] [-quick] [-seed n]
//
// The sim command runs one deployment on the discrete-event cluster
// simulator (internal/sim): thousands of nodes in one process on a virtual
// clock, reporting step-latency p50/p99 and rounds per simulated second.
// At a fixed seed the run — timing included — is bit-identical across
// hosts; -out writes the standard sweep artifacts (curve CSV, summary.csv,
// sweep.json) with the sim columns filled.
//
// Run overrides (zero values keep the loaded spec's setting): -topology,
// -rule, -attack, -nw, -fw, -nps, -fps, -iters, -acc-every, -seed, -async,
// -staleness-bound, -compress (gradient codec: fp64/none, fp16, int8, topk),
// -topk (top-k coordinate budget). Runs report a wire line with pull-reply
// bytes shipped and bytes saved against the fp64 baseline.
//
// A sweep at a fixed seed without -timing produces bit-identical artifacts
// across runs; -timing adds the wall-clock columns, which naturally vary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"garfield/internal/chaos"
	"garfield/internal/metrics"
	"garfield/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "garfield-scenarios:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: garfield-scenarios <command> [flags]

commands:
  list                 list the named scenario presets
  describe <preset>    print a preset's full spec as JSON
  run                  run one scenario (preset, JSON file, or flag overrides)
  sweep                expand and run a scenario matrix, emitting artifacts
  sim                  run one deployment on the discrete-event cluster simulator
  chaos                run the chaos presets under their resilience invariants

run 'garfield-scenarios <command> -h' for command flags`)
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("a command is required")
	}
	switch args[0] {
	case "list":
		return runList(out)
	case "describe":
		return runDescribe(args[1:], out)
	case "run":
		return runRun(args[1:], out)
	case "sweep":
		return runSweep(args[1:], out)
	case "sim":
		return runSim(args[1:], out)
	case "chaos":
		return runChaos(args[1:], out)
	case "-h", "-help", "--help", "help":
		usage(out)
		return nil
	}
	usage(out)
	return fmt.Errorf("unknown command %q", args[0])
}

func runList(out io.Writer) error {
	for _, name := range scenario.Names() {
		desc, err := scenario.Describe(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-28s %s\n", name, desc)
	}
	return nil
}

func runDescribe(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: garfield-scenarios describe <preset>")
	}
	sp, err := scenario.ByName(args[0])
	if err != nil {
		return err
	}
	return sp.EncodeJSON(out)
}

// loadSpec resolves the -preset/-spec pair shared by run and sweep.
func loadSpec(preset, specFile string) (scenario.Spec, error) {
	if preset != "" && specFile != "" {
		return scenario.Spec{}, fmt.Errorf("-preset and -spec are mutually exclusive")
	}
	if specFile != "" {
		f, err := os.Open(specFile)
		if err != nil {
			return scenario.Spec{}, err
		}
		defer f.Close()
		return scenario.DecodeJSON(f)
	}
	if preset == "" {
		return scenario.Spec{}, fmt.Errorf("one of -preset or -spec is required")
	}
	return scenario.ByName(preset)
}

func runRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("garfield-scenarios run", flag.ContinueOnError)
	preset := fs.String("preset", "", "named preset to run (see list)")
	specFile := fs.String("spec", "", "JSON spec file to run")
	format := fs.String("format", "table", "output format: table or csv")
	topology := fs.String("topology", "", "override topology")
	rule := fs.String("rule", "", "override the GAR")
	atk := fs.String("attack", "", "override the worker attack (none clears it)")
	nw := fs.Int("nw", 0, "override total workers")
	fw := fs.Int("fw", -1, "override Byzantine workers")
	nps := fs.Int("nps", 0, "override server replicas")
	fps := fs.Int("fps", -1, "override Byzantine servers")
	iters := fs.Int("iters", 0, "override iterations")
	accEvery := fs.Int("acc-every", -1, "override accuracy-measurement period")
	seed := fs.Uint64("seed", 0, "override the cluster seed")
	async := fs.Bool("async", false, "run the bounded-staleness async engine (ssmw, msmw)")
	stalenessBound := fs.Int("staleness-bound", 0, "override the async staleness bound tau (0: core default)")
	compressCodec := fs.String("compress", "", "override the gradient codec: fp64/none, fp16, int8, topk")
	topK := fs.Int("topk", 0, "override the top-k coordinate budget (with -compress topk)")
	shards := fs.Int("shards", 0, "override the shard count (sharded topology)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	sp, err := loadSpec(*preset, *specFile)
	if err != nil {
		return err
	}
	if *topology != "" {
		sp.Topology = *topology
	}
	if *rule != "" {
		sp.Rule = *rule
	}
	if *atk != "" {
		if *atk == "none" {
			sp.WorkerAttack = scenario.AttackSpec{}
		} else {
			sp.WorkerAttack.Name = *atk
		}
	}
	if *nw > 0 {
		sp.NW = *nw
	}
	if *fw >= 0 {
		sp.FW = *fw
	}
	if *nps > 0 {
		sp.NPS = *nps
	}
	if *fps >= 0 {
		sp.FPS = *fps
	}
	if *iters > 0 {
		sp.Iterations = *iters
	}
	if *accEvery >= 0 {
		sp.AccEvery = *accEvery
	}
	if *seed != 0 {
		sp.Seed = *seed
	}
	if *async {
		sp.Async = true
	}
	if *stalenessBound > 0 {
		sp.StalenessBound = *stalenessBound
	}
	if *compressCodec != "" {
		sp.Compression = *compressCodec
		if sp.Compression == "none" || sp.Compression == "fp64" {
			sp.Compression = ""
		}
		if sp.Compression != "topk" {
			// A top-k budget inherited from the loaded spec only makes
			// sense for the top-k codec; clear it so overriding a topk
			// preset with a dense codec validates.
			sp.TopK = 0
		}
	}
	if *topK > 0 {
		sp.TopK = *topK
	}
	if *shards > 0 {
		sp.Shards = *shards
	}

	res, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	name := sp.Name
	if name == "" {
		name = sp.Topology
	}
	fig := &metrics.Figure{
		Title:  fmt.Sprintf("%s: %s x %s (nw=%d fw=%d)", name, sp.Topology, sp.Rule, sp.NW, sp.FW),
		XLabel: "iteration", YLabel: "accuracy",
	}
	s := fig.AddSeries("accuracy")
	s.Points = append(s.Points, res.Accuracy.Points...)
	switch *format {
	case "table":
		if err := fig.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "final accuracy %.4f after %d updates (%.1f updates/sec)\n",
			res.Accuracy.Last(), res.Updates, res.UpdatesPerSec())
		if sp.Async {
			fmt.Fprintf(out, "avg staleness %.2f steps, %d gradients dropped beyond the bound\n",
				res.AvgStaleness, res.StaleDrops)
		}
		if w := res.Wire; w.Replies > 0 {
			saved := int64(w.ReplyFP64Bytes) - int64(w.ReplyPayloadBytes)
			codec := sp.Compression
			if codec == "" {
				codec = "fp64"
			}
			fmt.Fprintf(out, "wire: %d pull replies, %.1f KB shipped (%s), %.1f KB saved vs fp64 (%.2fx)\n",
				w.Replies, float64(w.ReplyPayloadBytes)/1024, codec,
				float64(saved)/1024, w.ReplyCompressionRatio())
		}
		if sp.Topology == scenario.TopoSharded {
			fmt.Fprintf(out, "sharded: %d committed rounds, %d aborted, %d failovers; %d shard pulls, %.1f KB ranged replies\n",
				res.ShardRounds, res.ShardAborts, res.ShardFailovers,
				res.Wire.ShardPulls, float64(res.Wire.ShardReplyBytes)/1024)
		}
		return nil
	case "csv":
		return fig.RenderCSV(out)
	}
	return fmt.Errorf("unknown format %q (want table or csv)", *format)
}

func runSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("garfield-scenarios sweep", flag.ContinueOnError)
	preset := fs.String("preset", "sweep-default", "preset used as the sweep base")
	specFile := fs.String("spec", "", "JSON spec file used as the sweep base")
	name := fs.String("name", "", "sweep name in the report")
	topologies := fs.String("topologies", "", "comma-separated topologies to sweep")
	rules := fs.String("rules", "", "comma-separated GARs to sweep")
	attacks := fs.String("attacks", "", "comma-separated worker attacks to sweep (none = honest)")
	fws := fs.String("fws", "", "comma-separated Byzantine worker counts to sweep")
	iters := fs.Int("iters", 0, "override base iterations")
	seed := fs.Uint64("seed", 0, "override the base seed")
	outDir := fs.String("out", "", "artifact directory (per-cell CSVs, summary.csv, sweep.json)")
	parallel := fs.Int("parallel", 0, "max concurrently-running cells (0: GOMAXPROCS)")
	timing := fs.Bool("timing", false, "include wall-clock columns (non-deterministic run to run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	basePreset := *preset
	if *specFile != "" {
		basePreset = "" // an explicit spec file wins over the preset default
	}
	base, err := loadSpec(basePreset, *specFile)
	if err != nil {
		return err
	}
	if *iters > 0 {
		base.Iterations = *iters
	}
	if *seed != 0 {
		base.Seed = *seed
	}
	m := scenario.Matrix{
		Name:       *name,
		Base:       base,
		Topologies: splitList(*topologies),
		Rules:      splitList(*rules),
		Attacks:    splitList(*attacks),
		FWs:        nil,
	}
	for _, s := range splitList(*fws) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bad -fws entry %q: %w", s, err)
		}
		m.FWs = append(m.FWs, v)
	}

	rep, err := scenario.RunSweep(m, scenario.SweepOptions{
		Parallel: *parallel, OutDir: *outDir, Timing: *timing,
	})
	if err != nil {
		return err
	}

	t := &metrics.Table{
		Title:  fmt.Sprintf("Sweep: %d cells (seed %d)", len(rep.Cells), rep.Seed),
		Header: []string{"cell", "status", "final acc", "max acc", "updates"},
	}
	failures := 0
	for _, c := range rep.Cells {
		status := c.Status
		if c.Status != "ok" {
			failures++
			status = "error: " + c.Error
		}
		t.AddRow(c.ID, status,
			fmt.Sprintf("%.4f", c.FinalAccuracy),
			fmt.Sprintf("%.4f", c.MaxAccuracy),
			strconv.Itoa(c.Updates))
	}
	if err := t.Render(out); err != nil {
		return err
	}
	if *outDir != "" {
		fmt.Fprintf(out, "artifacts written to %s\n", *outDir)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d cells failed", failures, len(rep.Cells))
	}
	return nil
}

// runSim runs one deployment on the discrete-event simulator. The learning
// task is a fixed small linear-softmax problem sized to the worker count
// (every worker gets a shard), because at simulator scale the question is
// protocol throughput and robustness versus n, f, codec and staleness — not
// the task. The run goes through the sweep runner as a single-cell matrix,
// so -out emits exactly the standard artifact set.
func runSim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("garfield-scenarios sim", flag.ContinueOnError)
	n := fs.Int("n", 5000, "total simulated workers")
	fw := fs.Int("fw", 500, "Byzantine (reversed) workers among them")
	replicas := fs.Int("replicas", 20, "server replicas (msmw topology)")
	topology := fs.String("topology", "msmw", "topology: vanilla, ssmw, aggregathor, msmw")
	rule := fs.String("rule", "median", "gradient GAR")
	iters := fs.Int("iters", 10, "training iterations")
	latency := fs.Float64("latency-ms", 1.0, "base one-way link latency (virtual ms)")
	jitter := fs.Float64("jitter-ms", 0.2, "per-message uniform jitter bound (virtual ms)")
	bandwidth := fs.Float64("bandwidth-mbps", 0, "per-link bandwidth in MB/s (0: infinite)")
	async := fs.Bool("async", false, "run the deterministic async replay (ssmw only)")
	stalenessBound := fs.Int("staleness-bound", 0, "async staleness bound tau (0: core default)")
	compressCodec := fs.String("compress", "", "gradient codec: fp16, int8, topk")
	topK := fs.Int("topk", 0, "top-k coordinate budget (with -compress topk)")
	seed := fs.Uint64("seed", 20210, "base seed (artifacts are bit-identical per seed)")
	outDir := fs.String("out", "", "artifact directory (curve CSV, summary.csv, sweep.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	sp := scenario.Spec{
		Name:     "sim",
		Topology: *topology,
		NW:       *n, FW: *fw,
		Rule:          *rule,
		Deterministic: true,
		Engine:        scenario.EngineSim,
		SimLatencyMS:  *latency,
		SimJitterMS:   *jitter, SimBandwidthMBps: *bandwidth,
		Compression: *compressCodec, TopK: *topK,
		Model: scenario.ModelSpec{Kind: scenario.ModelLinear, In: 16, Classes: 4},
		Dataset: scenario.DatasetSpec{
			Name: "sim-scale", Dim: 16, Classes: 4,
			Train: 2 * *n, Test: 64,
			Separation: 1.0, Noise: 0.2, Seed: 1,
		},
		BatchSize: 2,
		Seed:      *seed, Iterations: *iters,
	}
	if *fw > 0 {
		sp.WorkerAttack = scenario.AttackSpec{Name: "reversed"}
	}
	if *topology == scenario.TopoMSMW {
		sp.NPS = *replicas
		sp.SyncQuorum = true
	}
	if *async {
		sp.Async = true
		sp.SyncQuorum = false
		sp.StalenessBound = *stalenessBound
	}

	rep, err := scenario.RunSweep(scenario.Matrix{Name: "sim", Base: sp},
		scenario.SweepOptions{OutDir: *outDir})
	if err != nil {
		return err
	}
	c := rep.Cells[0]
	if c.Status != "ok" {
		return fmt.Errorf("sim run failed: %s", c.Error)
	}
	fmt.Fprintf(out, "sim: %s nw=%d fw=%d", c.Topology, c.NW, c.FW)
	if sp.NPS > 0 {
		fmt.Fprintf(out, " replicas=%d", sp.NPS)
	}
	fmt.Fprintf(out, " seed=%d\n", c.Seed)
	fmt.Fprintf(out, "updates %d, final accuracy %.4f\n", c.Updates, c.FinalAccuracy)
	if sp.Async {
		// The async replay pulls through single calls; the simulator's step
		// latency percentiles time quorum pull rounds only.
		fmt.Fprintf(out, "step latency: no quorum pull rounds ran (async); %.2f rounds/virtual-sec\n",
			c.SimRoundsPerSec)
	} else {
		fmt.Fprintf(out, "step latency p50 %.3f ms, p99 %.3f ms; %.2f rounds/virtual-sec\n",
			c.SimStepP50MS, c.SimStepP99MS, c.SimRoundsPerSec)
	}
	if *outDir != "" {
		fmt.Fprintf(out, "artifacts written to %s\n", *outDir)
	}
	return nil
}

// runChaos executes the chaos invariant harness: every chaos preset (or one
// named with -preset) runs under a seeded fault program and its machine-
// checked resilience properties; any failed invariant makes the command exit
// non-zero.
func runChaos(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("garfield-scenarios chaos", flag.ContinueOnError)
	preset := fs.String("preset", "", "run one chaos preset (default: all)")
	quick := fs.Bool("quick", false, "shrink runs ~3x for a fast smoke pass")
	seed := fs.Uint64("seed", 0, "override preset seeds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	opt := chaos.Options{Quick: *quick, Seed: *seed}
	var reports []*chaos.Report
	if *preset != "" {
		rep, err := chaos.Run(*preset, opt)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	} else {
		var err error
		if reports, err = chaos.RunAll(opt); err != nil {
			return err
		}
	}

	t, failed := chaos.ReportTable("Chaos invariants", reports)
	if err := t.Render(out); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d chaos invariants failed", failed)
	}
	fmt.Fprintf(out, "all %d invariants held across %d presets\n", rows(reports), len(reports))
	return nil
}

// rows counts invariant verdicts across reports.
func rows(reports []*chaos.Report) int {
	n := 0
	for _, rep := range reports {
		n += len(rep.Checks)
	}
	return n
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
