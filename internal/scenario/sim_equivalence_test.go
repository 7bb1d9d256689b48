package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"garfield/internal/core"
	"garfield/internal/metrics"
	"garfield/internal/tensor"
)

// simGoldenPresets are the live-scale presets the sim-vs-live equivalence
// goldens pin: every registry preset that runs on a sim-supported topology
// with a q = n quorum and no fault schedule. The q = n restriction is load-
// bearing, not convenience: with q < n the live engine cancels straggler
// pulls after the quorum and those workers still consumed a sampler draw,
// while the simulator never dispatches a cancelled arrival — the two
// engines agree on the model trajectory only when every pull reaches every
// peer.
var simGoldenPresets = []string{
	"quickstart",
	"vanilla-baseline",
	"aggregathor",
	"mnistcnn-lie",
	"ssmw-random",
	"ssmw-reversed",
	"ssmw-littleisenough",
	"ssmw-fallofempires",
	"msmw-demo",
	"msmw-random",
	"msmw-reversed",
	"msmw-littleisenough",
	"msmw-fallofempires",
	"compress-int8",
	"compress-fp16",
	"compress-topk",
	"sweep-default",
}

// goldenSpec loads a preset and pins it for the equivalence comparison:
// deterministic mode on both legs and a shortened run so the full table
// stays fast.
func goldenSpec(t *testing.T, name string) Spec {
	t.Helper()
	sp, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sp.Deterministic = true
	if sp.Iterations > 12 {
		sp.Iterations = 12
		sp.AccEvery = 4
	}
	return sp
}

// runLeg materializes the spec on its engine, drives the protocol, and
// returns the result together with the first server's final parameters.
func runLeg(t *testing.T, sp Spec) (*core.Result, tensor.Vector) {
	t.Helper()
	var c *core.Cluster
	var err error
	if sp.Engine == EngineSim {
		c, _, err = NewSimCluster(sp)
	} else {
		c, err = NewCluster(sp)
	}
	if err != nil {
		t.Fatalf("%s: cluster: %v", sp.Name, err)
	}
	defer c.Close()
	res, err := RunOn(c, sp)
	if err != nil {
		t.Fatalf("%s: run: %v", sp.Name, err)
	}
	return res, c.Server(c.Roster().Servers[0]).Params()
}

// curveBytes renders an accuracy curve through the sweep's own CSV writer
// and returns the artifact bytes.
func curveBytes(t *testing.T, dir, leg string, points []metrics.Point) []byte {
	t.Helper()
	path := filepath.Join(dir, leg+".csv")
	if err := writeCurveCSV(path, CellResult{Accuracy: points}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSimMatchesLiveDeterministic is the equivalence golden: for every
// live-scale preset, a simulated run at zero configured latency must be
// bit-identical to the live deterministic run at the same seed — same model
// trajectory (final parameters, float for float), same update count, and a
// byte-identical accuracy-curve CSV artifact.
func TestSimMatchesLiveDeterministic(t *testing.T) {
	presets := simGoldenPresets
	if testing.Short() {
		presets = []string{"quickstart", "msmw-demo", "sweep-default"}
	}
	for _, name := range presets {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sp := goldenSpec(t, name)
			liveRes, liveParams := runLeg(t, sp)

			simSp := sp
			simSp.Engine = EngineSim // zero latency knobs: instantaneous network
			simRes, simParams := runLeg(t, simSp)

			if !liveParams.Equal(simParams) {
				t.Fatalf("final parameters diverge (dim %d)", liveParams.Dim())
			}
			if liveRes.Updates != simRes.Updates {
				t.Fatalf("updates: live %d, sim %d", liveRes.Updates, simRes.Updates)
			}
			dir := t.TempDir()
			lb := curveBytes(t, dir, "live", liveRes.Accuracy.Points)
			sb := curveBytes(t, dir, "sim", simRes.Accuracy.Points)
			if string(lb) != string(sb) {
				t.Fatalf("accuracy-curve CSVs differ:\nlive:\n%s\nsim:\n%s", lb, sb)
			}
		})
	}
}

// TestSimMatchesLiveAsyncReplay extends the goldens to the deterministic
// async engine: the seeded single-threaded replay issues its pulls through
// rpc.Caller.Call, so it runs under either wiring and must not notice which
// one it got.
func TestSimMatchesLiveAsyncReplay(t *testing.T) {
	sp, err := ByName("async-crash")
	if err != nil {
		t.Fatal(err)
	}
	sp.Faults = nil // the replay schedule, not transport faults, is the point
	sp.Deterministic = true
	sp.Iterations, sp.AccEvery = 12, 4
	liveRes, liveParams := runLeg(t, sp)

	simSp := sp
	simSp.Engine = EngineSim
	simRes, simParams := runLeg(t, simSp)

	if !liveParams.Equal(simParams) {
		t.Fatal("async replay: final parameters diverge between live and sim")
	}
	if liveRes.Updates != simRes.Updates || liveRes.StaleDrops != simRes.StaleDrops ||
		liveRes.AvgStaleness != simRes.AvgStaleness {
		t.Fatalf("async replay: live (updates=%d drops=%d stale=%v) != sim (updates=%d drops=%d stale=%v)",
			liveRes.Updates, liveRes.StaleDrops, liveRes.AvgStaleness,
			simRes.Updates, simRes.StaleDrops, simRes.AvgStaleness)
	}
}

// TestSimMatchesLiveDecentralized extends the goldens to the decentralized
// topology on its two sync-quorum shapes: non-IID with the contract step
// (fw = 0, so every node publishes an aggregate) and IID under a Byzantine
// node. Two live runs must agree with each other — the phased round runs
// its nodes in index order under deterministic mode — and with the
// simulator: same final parameters, same accuracy-curve CSV bytes.
func TestSimMatchesLiveDecentralized(t *testing.T) {
	shapes := []struct {
		name   string
		fw     int
		nonIID bool
	}{
		{"non-iid-fw0", 0, true},
		{"iid-fw1", 1, false},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			sp := goldenSpec(t, "decentralized-demo")
			sp.SyncQuorum, sp.FW, sp.NonIID = true, sh.fw, sh.nonIID
			dir := t.TempDir()
			liveRes, liveParams := runLeg(t, sp)
			lb := curveBytes(t, dir, "live", liveRes.Accuracy.Points)

			againRes, againParams := runLeg(t, sp)
			simSp := sp
			simSp.Engine = EngineSim
			simRes, simParams := runLeg(t, simSp)
			for _, leg := range []struct {
				name   string
				res    *core.Result
				params tensor.Vector
			}{{"live rerun", againRes, againParams}, {"sim", simRes, simParams}} {
				if !liveParams.Equal(leg.params) {
					t.Fatalf("%s: final parameters diverge from live (dim %d)", leg.name, liveParams.Dim())
				}
				if liveRes.Updates != leg.res.Updates {
					t.Fatalf("%s: updates %d, live %d", leg.name, leg.res.Updates, liveRes.Updates)
				}
				if b := curveBytes(t, dir, leg.name, leg.res.Accuracy.Points); string(b) != string(lb) {
					t.Fatalf("%s: accuracy-curve CSV differs:\nlive:\n%s\n%s:\n%s", leg.name, lb, leg.name, b)
				}
			}
		})
	}
}
