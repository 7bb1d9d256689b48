package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"garfield/internal/scenario"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"quickstart", "msmw-demo", "sweep-default"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("list output missing preset %q", want)
		}
	}
}

func TestDescribeEmitsValidSpec(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"describe", "quickstart"}, &buf); err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("describe output is not a decodable spec: %v", err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("described spec fails validation: %v", err)
	}
}

func TestDescribeUnknown(t *testing.T) {
	if err := run([]string{"describe", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("want error for unknown preset")
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run([]string{"frobnicate"}, &bytes.Buffer{}); err == nil {
		t.Fatal("want error for unknown command")
	}
}

// tinySpecFile writes a fast-running spec to disk and returns its path.
func tinySpecFile(t *testing.T) string {
	t.Helper()
	sp := scenario.Spec{
		Name:     "tiny",
		Topology: scenario.TopoSSMW,
		NW:       5, FW: 1,
		NPS:        3,
		Rule:       "median",
		SyncQuorum: true, Deterministic: true,
		Model:     scenario.ModelSpec{Kind: scenario.ModelLinear, In: 8, Classes: 4},
		Dataset:   scenario.DatasetSpec{Name: "t", Dim: 8, Classes: 4, Train: 120, Test: 40, Separation: 1, Noise: 1, Seed: 2},
		BatchSize: 8,
		Seed:      2, Iterations: 4, AccEvery: 2,
	}
	path := filepath.Join(t.TempDir(), "tiny.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := sp.EncodeJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFromSpecFileWithOverrides(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"run", "-spec", tinySpecFile(t), "-iters", "3", "-rule", "krum", "-format", "csv"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "iteration,accuracy") {
		t.Errorf("csv output missing header: %q", out)
	}
}

// TestRunCompressOverride: the -compress override enables the codec on any
// preset and the run reports the wire line with bytes saved vs fp64.
func TestRunCompressOverride(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"run", "-spec", tinySpecFile(t), "-iters", "3", "-compress", "int8"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "saved vs fp64") || !strings.Contains(out, "(int8)") {
		t.Errorf("run output missing the wire accounting line: %q", out)
	}
}

// TestRunCompressOverrideClearsStaleTopK: overriding a topk preset with a
// dense codec must drop the inherited top-k budget, or validation rejects
// the pairing.
func TestRunCompressOverrideClearsStaleTopK(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"run", "-preset", "compress-topk", "-iters", "3", "-compress", "int8"}, &buf)
	if err != nil {
		t.Fatalf("int8 override on the topk preset rejected: %v", err)
	}
	if !strings.Contains(buf.String(), "(int8)") {
		t.Errorf("override did not take effect: %q", buf.String())
	}
}

// TestRunTopKOverride: -compress topk needs -topk, and validation rejects a
// missing budget loudly.
func TestRunTopKOverride(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"run", "-spec", tinySpecFile(t), "-iters", "3", "-compress", "topk"}, &buf); err == nil {
		t.Fatal("topk without -topk accepted")
	}
	buf.Reset()
	if err := run([]string{"run", "-spec", tinySpecFile(t), "-iters", "3", "-compress", "topk", "-topk", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(topk)") {
		t.Errorf("run output missing topk wire line: %q", buf.String())
	}
}

func TestSweepArtifacts(t *testing.T) {
	outDir := filepath.Join(t.TempDir(), "artifacts")
	var buf bytes.Buffer
	err := run([]string{"sweep", "-spec", tinySpecFile(t),
		"-topologies", "ssmw,msmw", "-rules", "median,krum", "-out", outDir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(outDir, "sweep.json"))
	if err != nil {
		t.Fatalf("sweep.json not written: %v", err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("sweep.json not parseable: %v", err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Status != "ok" {
			t.Errorf("cell %s failed: %s", c.ID, c.Error)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "summary.csv")); err != nil {
		t.Errorf("summary.csv not written: %v", err)
	}
}

// TestSimCommand runs a small deployment on the discrete-event engine and
// checks the step-latency/throughput report plus the artifact set with the
// sim columns.
func TestSimCommand(t *testing.T) {
	outDir := filepath.Join(t.TempDir(), "sim")
	var buf bytes.Buffer
	err := run([]string{"sim", "-n", "100", "-fw", "10", "-replicas", "3",
		"-iters", "3", "-out", outDir}, &buf)
	if err != nil {
		t.Fatalf("sim command failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"step latency p50", "rounds/virtual-sec", "updates 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q:\n%s", want, out)
		}
	}
	summary, err := os.ReadFile(filepath.Join(outDir, "summary.csv"))
	if err != nil {
		t.Fatalf("summary.csv not written: %v", err)
	}
	if !strings.Contains(string(summary), "sim_step_p50_ms") {
		t.Errorf("summary.csv missing sim columns:\n%s", summary)
	}
}

// TestSimCommandAsync: the deterministic async replay runs no quorum pull
// round, so the report says so instead of printing zero step latencies.
func TestSimCommandAsync(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"sim", "-topology", "ssmw", "-async", "-n", "20", "-fw", "2", "-iters", "3"}, &buf)
	if err != nil {
		t.Fatalf("async sim command failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "no quorum pull rounds ran") || strings.Contains(out, "p50") {
		t.Errorf("async sim output should report no pull rounds, not latencies:\n%s", out)
	}
	if !strings.Contains(out, "updates 3") {
		t.Errorf("async sim output missing the update count:\n%s", out)
	}
}

func TestChaosCommandSinglePreset(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"chaos", "-preset", "chaos-corrupt-link", "-quick"}, &buf); err != nil {
		t.Fatalf("chaos command failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"chaos-corrupt-link", "corruption-rejected", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("an invariant failed:\n%s", out)
	}
}

func TestChaosCommandRejectsUnknownPreset(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"chaos", "-preset", "chaos-imaginary"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "unknown chaos preset") {
		t.Fatalf("err = %v", err)
	}
}
