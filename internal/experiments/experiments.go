// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 plus the appendix). Each experiment has a stable id
// ("table1", "fig3a", ..., "table2") and produces the same rows/series the
// paper plots: convergence experiments run live in-process clusters
// (internal/core), micro-benchmarks time the real GAR implementations
// (internal/gar), and scaling experiments evaluate the deterministic cluster
// cost model (internal/simnet).
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// Options tunes a run.
type Options struct {
	// Quick shrinks dimensions, sweeps and iteration counts so the whole
	// suite finishes in seconds (used by tests and the bench harness);
	// full mode approaches the paper's scales where feasible.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 20211
	}
	return o.Seed
}

// Renderable is anything that can print itself (metrics.Figure,
// metrics.Table).
type Renderable interface {
	Render(w io.Writer) error
}

// CSVRenderable is implemented by outputs that also support CSV export.
type CSVRenderable interface {
	RenderCSV(w io.Writer) error
}

// Generator produces one experiment's output.
type Generator func(opt Options) (Renderable, error)

// ErrUnknownExperiment is returned by Run for an unknown id.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// registry maps experiment ids to generators; descriptions feed the CLI help.
var registry = map[string]struct {
	gen  Generator
	desc string
}{
	"table1": {Table1, "model catalogue: names, parameter counts, sizes"},
	"fig3a":  {Fig3a, "GAR aggregation time vs number of inputs n"},
	"fig3b":  {Fig3b, "GAR aggregation time vs input dimension d"},
	"fig4a":  {Fig4a, "convergence vs iterations, CifarNet-style task (TF/CPU setup)"},
	"fig4b":  {Fig4b, "convergence vs epochs, ResNet-50-style task (PT/GPU setup)"},
	"fig5a":  {Fig5a, "tolerance to the random-vectors attack"},
	"fig5b":  {Fig5b, "tolerance to the reversed-vectors attack"},
	"fig6a":  {Fig6a, "throughput slowdown vs model, CPU cluster"},
	"fig6b":  {Fig6b, "throughput slowdown vs model, GPU cluster"},
	"fig7":   {Fig7, "per-iteration latency breakdown, CPU cluster"},
	"fig8a":  {Fig8a, "throughput vs number of workers, CPU (TF setup)"},
	"fig8b":  {Fig8b, "throughput vs number of workers, GPU (PT setup)"},
	"fig9a":  {Fig9a, "decentralized communication time vs n"},
	"fig9b":  {Fig9b, "decentralized communication time vs d"},
	"fig10a": {Fig10a, "throughput vs number of Byzantine workers"},
	"fig10b": {Fig10b, "throughput vs number of Byzantine servers"},
	"fig11a": {Fig11a, "convergence vs wall-clock time, CifarNet-style task"},
	"fig11b": {Fig11b, "convergence vs wall-clock time, ResNet-50-style task"},
	"fig12a": {Fig12a, "MDA convergence vs iterations"},
	"fig12b": {Fig12b, "MDA convergence vs time"},
	"fig13a": {Fig13a, "Garfield throughput vs f_w, CPU"},
	"fig13b": {Fig13b, "Garfield throughput vs f_w, GPU"},
	"fig14a": {Fig14a, "Garfield throughput vs f_ps, CPU"},
	"fig14b": {Fig14b, "Garfield throughput vs f_ps, GPU"},
	"fig15":  {Fig15, "PyTorch-style slowdown per model, GPU"},
	"fig16":  {Fig16, "PyTorch-style latency breakdown, GPU (pipelined)"},
	"table2": {Table2, "parameter-vector alignment: cos(phi) of top difference vectors"},

	// Extension experiments (beyond the paper's figure set; see
	// ARCHITECTURE.md, "The consumers").
	"ext-momentum":   {ExtMomentum, "EXT: worker momentum restoring the GAR variance condition"},
	"ext-gars":       {ExtGARs, "EXT: every robust GAR under the reversed-vectors attack"},
	"ext-stale":      {ExtStale, "EXT: staleness fault vs robust aggregation"},
	"ext-throughput": {ExtLiveThroughput, "EXT: live in-process throughput of every protocol"},
	"ext-async":      {ExtAsyncThroughput, "EXT: async bounded-staleness vs lockstep SSMW under a straggler"},
	"ext-compress":   {ExtCompress, "EXT: gradient compression codecs — bytes-on-wire vs accuracy vs attack rejection"},
	"chaos":          {ExtChaos, "EXT: chaos-engine invariants (safety/liveness/determinism/corruption/membership churn) per preset"},
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
	return e.desc, nil
}

// Run generates experiment id and renders it to w as an aligned table.
func Run(id string, opt Options, w io.Writer) error {
	r, err := generate(id, opt)
	if err != nil {
		return err
	}
	return r.Render(w)
}

// RunCSV generates experiment id and renders it to w as CSV.
func RunCSV(id string, opt Options, w io.Writer) error {
	r, err := generate(id, opt)
	if err != nil {
		return err
	}
	c, ok := r.(CSVRenderable)
	if !ok {
		return fmt.Errorf("experiments: %s has no CSV form", id)
	}
	return c.RenderCSV(w)
}

func generate(id string, opt Options) (Renderable, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownExperiment, id, IDs())
	}
	r, err := e.gen(opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return r, nil
}
