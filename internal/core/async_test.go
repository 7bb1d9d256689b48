package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"garfield/internal/attack"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

func TestAsyncSSMWConverges(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	res, err := c.RunAsyncSSMW(RunOptions{Iterations: 80, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.8 {
		t.Fatalf("async ssmw final accuracy = %v, want >= 0.8", acc)
	}
	if res.Updates != 80 {
		t.Fatalf("updates = %d", res.Updates)
	}
}

func TestAsyncSSMWToleratesReversedAttack(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NW, cfg.FW = 9, 2
	cfg.WorkerAttack = attack.Reversed{Factor: -100}
	c := newTestCluster(t, cfg)
	res, err := c.RunAsyncSSMW(RunOptions{Iterations: 80, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.75 {
		t.Fatalf("async ssmw under attack accuracy = %v", acc)
	}
}

func TestAsyncSSMWRidesOutWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("live async engine with crash backoff (~2s)")
	}
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	if _, err := c.RunAsyncSSMW(RunOptions{Iterations: 20, AccEvery: 0}); err != nil {
		t.Fatal(err)
	}
	c.CrashWorker(6) // the declared-Byzantine slot: quorum 6 of 7 remains
	res, err := c.RunAsyncSSMW(RunOptions{Iterations: 40, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.75 {
		t.Fatalf("async ssmw after crash accuracy = %v", acc)
	}
}

func TestAsyncSSMWQuorumFailure(t *testing.T) {
	cfg := baseConfig(t)
	cfg.PullTimeout = 200 * time.Millisecond
	c := newTestCluster(t, cfg)
	// Quorum is nw - fw = 6; crashing two workers leaves only 5.
	c.CrashWorker(0)
	c.CrashWorker(1)
	_, err := c.RunAsyncSSMW(RunOptions{Iterations: 5})
	if !errors.Is(err, rpc.ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
}

// TestAsyncReplayQuorumFailure is the deterministic counterpart of
// TestAsyncSSMWQuorumFailure: the replay schedule takes crashed workers out
// of the schedule, and with fewer live workers than the quorum the run fails
// with ErrQuorum instead of spinning, naming the step and the live count once.
func TestAsyncReplayQuorumFailure(t *testing.T) {
	cfg := detConfig(t)
	cfg.SyncQuorum = false
	c := newTestCluster(t, cfg)
	// Quorum is nw - fw = 4; crashing two workers leaves only 3.
	c.CrashWorker(0)
	c.CrashWorker(1)
	_, err := c.RunAsyncSSMW(RunOptions{Iterations: 5})
	if !errors.Is(err, rpc.ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
	msg := err.Error()
	if strings.Count(msg, "step 0") != 1 || strings.Count(msg, "3 live workers") != 1 {
		t.Fatalf("err = %q, want the step and the live-worker count named once", msg)
	}
}

// TestAsyncSSMWOutpacesLockstepUnderStraggler is the engine's raison d'etre
// and the PR's acceptance bar: with one worker serving every request 15ms
// late, the synchronous q = n runner is paced by it (a hard sleep floor of
// (iters-1) * delay) while the async engine updates from the fresh quorum —
// at least 1.5x the updates/sec, in practice far more. Wall-clock ratios on
// a loaded machine (test binaries compiling/running concurrently) can be
// starved arbitrarily, so the delay is chosen to dominate plausible
// scheduler noise and a transient failure is retried.
func TestAsyncSSMWOutpacesLockstepUnderStraggler(t *testing.T) {
	const iters = 12
	delay := 15 * time.Millisecond

	run := func(async bool) *Result {
		cfg := baseConfig(t)
		c := newTestCluster(t, cfg)
		c.SlowWorker(6, delay)
		var res *Result
		var err error
		if async {
			res, err = c.RunAsyncSSMW(RunOptions{Iterations: iters})
		} else {
			res, err = c.RunSSMW(RunOptions{Iterations: iters})
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		sync := run(false)
		async := run(true)
		// Both engines must learn regardless of timing.
		if sync.Accuracy.Last() < 0.7 || async.Accuracy.Last() < 0.7 {
			t.Fatalf("accuracy: lockstep %v, async %v", sync.Accuracy.Last(), async.Accuracy.Last())
		}
		ratio = async.UpdatesPerSec() / sync.UpdatesPerSec()
		if ratio >= 1.5 {
			return
		}
		t.Logf("attempt %d: ratio %.2f (async %.1f u/s, lockstep %.1f u/s); retrying",
			attempt, ratio, async.UpdatesPerSec(), sync.UpdatesPerSec())
	}
	t.Fatalf("async/lockstep throughput ratio = %.2f after retries, want >= 1.5", ratio)
}

func TestAsyncMSMWConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run; skipped in -short runs")
	}
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	res, err := c.RunAsyncMSMW(RunOptions{Iterations: 80, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.75 {
		t.Fatalf("async msmw accuracy = %v", acc)
	}
}

func TestAsyncMSMWToleratesByzantineServersAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run; skipped in -short runs")
	}
	cfg := baseConfig(t)
	cfg.FW, cfg.FPS = 1, 1
	cfg.WorkerAttack = attack.Reversed{Factor: -100}
	cfg.ServerAttack = attack.NewRandom(tensor.NewRNG(5), 10)
	c := newTestCluster(t, cfg)
	res, err := c.RunAsyncMSMW(RunOptions{Iterations: 100, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.7 {
		t.Fatalf("async msmw under dual attack accuracy = %v", acc)
	}
}

func TestAsyncMSMWRejectsDeterministic(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Deterministic = true
	cfg.SyncQuorum = false
	c := newTestCluster(t, cfg)
	if _, err := c.RunAsyncMSMW(RunOptions{Iterations: 5}); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
}

// TestAsyncReplayBitIdentical is the async determinism contract: two replay
// runs of the same deterministic config end with bit-identical model state
// and identical staleness accounting.
func TestAsyncReplayBitIdentical(t *testing.T) {
	run := func() (*Result, tensor.Vector) {
		cfg := detConfig(t)
		cfg.SyncQuorum = false
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.RunAsyncSSMW(RunOptions{Iterations: 12})
		if err != nil {
			t.Fatal(err)
		}
		return res, c.Server(0).Params()
	}
	resA, a := run()
	resB, b := run()
	if !a.Equal(b) {
		t.Error("async replay parameters differ between identical runs")
	}
	if resA.AvgStaleness != resB.AvgStaleness || resA.StaleDrops != resB.StaleDrops {
		t.Errorf("staleness accounting differs: (%v, %d) vs (%v, %d)",
			resA.AvgStaleness, resA.StaleDrops, resB.AvgStaleness, resB.StaleDrops)
	}
}

// TestAsyncReplayExercisesStaleness: the replay's seeded latency process
// must actually produce stale-but-accepted gradients, otherwise the damping
// path is dead code in deterministic mode.
func TestAsyncReplayExercisesStaleness(t *testing.T) {
	cfg := detConfig(t)
	cfg.SyncQuorum = false
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.RunAsyncSSMW(RunOptions{Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgStaleness == 0 {
		t.Error("replay schedule produced no staleness at all")
	}
}

// TestGradQueuesCollectSemantics pins the queue contract single-threaded:
// bound filtering, freshest-first selection, pop-on-select and drop
// accounting.
func TestGradQueuesCollectSemantics(t *testing.T) {
	g := newGradQueues([]int{0, 1, 2, 3})
	vec := func(x float64) tensor.Vector { return tensor.Vector{x} }
	g.push(0, taggedGrad{vec: vec(0), step: 10}) // staleness 0
	g.push(1, taggedGrad{vec: vec(1), step: 8})  // staleness 2
	g.push(2, taggedGrad{vec: vec(2), step: 5})  // staleness 5: beyond tau=3
	g.push(3, taggedGrad{vec: vec(3), step: 9})  // staleness 1

	if picks := g.tryCollect(10, 4, 3); picks != nil {
		t.Fatalf("collect found 4 fresh workers, one should be too stale: %+v", picks)
	}
	if g.dropCount() != 1 {
		t.Fatalf("drops = %d, want 1 (worker 2's over-bound entry)", g.dropCount())
	}
	picks := g.tryCollect(10, 3, 3)
	if picks == nil {
		t.Fatal("3 fresh workers available, collect failed")
	}
	wantOrder := []int{0, 3, 1} // staleness 0, 1, 2
	for i, p := range picks {
		if p.worker != wantOrder[i] {
			t.Fatalf("pick %d = worker %d, want %d (freshest first)", i, p.worker, wantOrder[i])
		}
	}
	// Selected entries are consumed.
	if picks = g.tryCollect(10, 1, 3); picks != nil {
		t.Fatalf("queues should be empty after consumption, got %+v", picks)
	}
}

func TestGradQueuesDepthEvictsOldest(t *testing.T) {
	g := newGradQueues([]int{0})
	for s := uint32(0); s < 5; s++ {
		g.push(0, taggedGrad{vec: tensor.Vector{float64(s)}, step: s})
	}
	picks := g.tryCollect(4, 1, 4)
	if picks == nil || picks[0].vec[0] != 4 {
		t.Fatalf("newest entry not served after eviction: %+v", picks)
	}
}

// TestGradQueuesConcurrentStress hammers the queue set from one producer per
// worker while a consumer collects under a staleness bound — the test is
// meaningful mainly under -race, but the invariants (quorum size, bound,
// distinct workers) are asserted in any mode.
func TestGradQueuesConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress loop; skipped in -short runs")
	}
	const (
		workers = 8
		quorum  = 6
		tau     = 3
		rounds  = 200
	)
	g := newGradQueues([]int{0, 1, 2, 3, 4, 5, 6, 7})
	var step uint32 // the consumer's model clock, read by producers
	var stepMu sync.Mutex
	now := func() uint32 {
		stepMu.Lock()
		defer stepMu.Unlock()
		return step
	}
	advance := func() {
		stepMu.Lock()
		step++
		stepMu.Unlock()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				g.push(w, taggedGrad{vec: tensor.Vector{float64(w)}, step: now()})
			}
		}()
	}

	for i := 0; i < rounds; i++ {
		picks, err := g.collect(now(), quorum, tau, 2*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if len(picks) != quorum {
			t.Fatalf("round %d: %d picks, want %d", i, len(picks), quorum)
		}
		seen := map[int]bool{}
		for _, p := range picks {
			if p.staleness < 0 || p.staleness > tau {
				t.Fatalf("round %d: staleness %d outside [0, %d]", i, p.staleness, tau)
			}
			if seen[p.worker] {
				t.Fatalf("round %d: worker %d picked twice", i, p.worker)
			}
			seen[p.worker] = true
		}
		advance()
	}
	close(done)
	wg.Wait()
}
