package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"garfield/internal/attack"
	"garfield/internal/compress"
	"garfield/internal/data"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/sgd"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// Config describes one in-process Garfield deployment: the cluster shape
// (nw workers of which fw Byzantine, nps server replicas of which fps
// Byzantine), the learning task, and the robust aggregation rule. It plays
// the role of the paper's Controller module inputs.
type Config struct {
	// Arch is the model architecture shared by every node.
	Arch model.Model
	// Train is the training set, sharded across workers; Test is used for
	// accuracy measurements.
	Train *data.Dataset
	Test  *data.Dataset
	// BatchSize is the per-worker mini-batch size (32 in the paper's
	// TensorFlow setup).
	BatchSize int

	// NW and FW are total and Byzantine worker counts.
	NW, FW int
	// NPS and FPS are total and Byzantine server counts. Single-server
	// protocols use only the first server.
	NPS, FPS int

	// Rule is the GAR used by Byzantine-resilient protocols to aggregate
	// gradients.
	Rule string
	// ModelRule is the GAR used to aggregate models among server replicas
	// (MSMW and decentralized). It defaults to Median: the replica count
	// is small, so rules with steep n >= g(f) requirements (Bulyan) are
	// not generally applicable there.
	ModelRule string
	// SyncQuorum makes MSMW and decentralized runs collect from all
	// workers/peers (q = n) instead of n - f — the synchronous-network
	// variant the paper evaluates with Multi-Krum on PyTorch.
	SyncQuorum bool
	// ModelAggEvery makes MSMW replicas exchange and aggregate models
	// every that many iterations (default 1: every iteration, as in
	// Listing 2). ByzSGD's contraction can run periodically; spacing it
	// out lets replicas diverge measurably between contractions, which is
	// what the paper's Table 2 methodology studies.
	ModelAggEvery int

	// WorkerAttack and ServerAttack are the behaviours of the Byzantine
	// nodes (the last FW workers / last FPS servers). Nil means honest
	// (declared-Byzantine-but-benign, as in the throughput experiments).
	WorkerAttack attack.Attack
	ServerAttack attack.Attack

	// ServerByz selects the initial ByzantineServer wrapper mode of the
	// declared-Byzantine replicas — the stateful server-side adversaries
	// (equivocation, seeded per-puller noise) that ServerAttack's per-reply
	// corruption cannot express. The wrapper always exists on declared-
	// Byzantine replicas so a scheduled byz-server fault can flip an
	// initially-honest one adversarial mid-run; an empty Mode starts them
	// honest.
	ServerByz ByzServerConfig

	// NonIID shards training data by label instead of IID, triggering the
	// decentralized contract step.
	NonIID bool
	// ContractSteps is the number of contract rounds per iteration in
	// decentralized learning when NonIID is set.
	ContractSteps int

	// LR is the learning-rate schedule (default: constant 0.1).
	LR sgd.Schedule
	// Momentum is the server-side classical-momentum coefficient
	// (0 disables).
	Momentum float64
	// WorkerMomentum enables worker-side (distributed) momentum: workers
	// reply with exponentially-smoothed gradients, reducing the variance
	// the GAR resilience condition depends on (Section 8's seamless
	// variance-reduction extension).
	WorkerMomentum float64
	// AttackSelfPeers gives Byzantine workers that many self-estimated
	// honest gradients per request, enabling the collusion attacks
	// (little-is-enough, fall-of-empires) in live runs.
	AttackSelfPeers int

	// Compression names the gradient codec of the deployment ("" or
	// "fp64": passthrough; "fp16", "int8", "topk" — see internal/compress).
	// Workers compress their gradient replies for servers that advertise
	// the codec; servers decompress transparently at the RPC layer. TopK is
	// the coordinate budget of the "topk" codec (required with it, ignored
	// otherwise); top-k workers carry an error-feedback residual across
	// steps so dropped coordinates accumulate instead of vanishing.
	Compression string
	TopK        int

	// Shards is the shard count of the sharded-aggregation topology
	// (RunSharded): the coordinate space (coordinate-wise rules) or the
	// worker set (selection rules, hierarchically) is partitioned into that
	// many parts, each owned by a server replica. 0 (the default) leaves
	// sharding off; every other topology ignores it.
	Shards int

	// StalenessBound and StalenessDamping tune the asynchronous protocols
	// (RunAsyncSSMW, RunAsyncMSMW). A gradient computed against the model
	// at step t0 and aggregated at step t has staleness t - t0: gradients
	// staler than the bound tau are discarded, and accepted stale gradients
	// are scaled by damping^staleness before aggregation. Zero values
	// select the defaults (bound 3, damping 0.5) — not "fresh only" /
	// zero-weighting, which are expressed as bound 1 plus a tiny positive
	// damping. Lockstep protocols ignore both.
	StalenessBound   int
	StalenessDamping float64

	// Seed drives all randomness (sharding, sampling, attacks, init).
	Seed uint64
	// PullTimeout bounds each pull round (default 30s).
	PullTimeout time.Duration

	// Deterministic makes runs bit-identical across repetitions at the
	// same seed, at the cost of extra synchronization: workers compute one
	// gradient estimate per step and serve it to every puller (the
	// paper's broadcast semantics) instead of drawing a fresh mini-batch
	// per pull, servers aggregate pulled vectors in canonical (address)
	// order instead of arrival order, and the replicated rounds run their
	// replicas one after another in index order instead of one goroutine
	// each. Replicated topologies additionally need SyncQuorum (with q < n
	// the responding subset itself depends on timing) and an
	// order-insensitive ModelRule such as median. Used by the scenario
	// sweep runner.
	Deterministic bool
}

func (c *Config) defaults() {
	if c.LR == nil {
		c.LR = sgd.Constant(0.1)
	}
	if c.PullTimeout == 0 {
		c.PullTimeout = 30 * time.Second
	}
	if c.ContractSteps == 0 {
		c.ContractSteps = 1
	}
	if c.ModelRule == "" {
		c.ModelRule = "median"
	}
	if c.ModelAggEvery == 0 {
		c.ModelAggEvery = 1
	}
	if c.NPS == 0 {
		c.NPS = 1
	}
}

// ByzServerConfig parameterizes the ByzantineServer wrappers of a cluster's
// declared-Byzantine replicas.
type ByzServerConfig struct {
	// Mode is the initial behaviour ("" or "honest": benign until a
	// scheduled byz-server fault flips it); see ByzModes.
	Mode string
	// Scale is the noise scale of the random and equivocate modes
	// (0 selects DefaultByzScale).
	Scale float64
}

func (c *Config) validate() error {
	if c.Arch == nil || c.Train == nil || c.Test == nil {
		return fmt.Errorf("%w: arch, train and test are required", ErrConfig)
	}
	if c.NW < 1 || c.BatchSize < 1 {
		return fmt.Errorf("%w: nw=%d batch=%d", ErrConfig, c.NW, c.BatchSize)
	}
	if c.FW < 0 || c.FW >= c.NW {
		return fmt.Errorf("%w: fw=%d of nw=%d", ErrConfig, c.FW, c.NW)
	}
	if c.FPS < 0 || (c.NPS > 0 && c.FPS >= c.NPS) {
		return fmt.Errorf("%w: fps=%d of nps=%d", ErrConfig, c.FPS, c.NPS)
	}
	if c.Rule == "" {
		return fmt.Errorf("%w: rule is required", ErrConfig)
	}
	if c.StalenessBound < 0 {
		return fmt.Errorf("%w: staleness bound %d < 0", ErrConfig, c.StalenessBound)
	}
	if c.Shards < 0 || c.Shards > 65535 {
		return fmt.Errorf("%w: shards=%d (want 0..65535, the wire format's shard index width)", ErrConfig, c.Shards)
	}
	if enc, err := compress.Parse(c.Compression); err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	} else if enc == compress.EncTopK && c.TopK < 1 {
		return fmt.Errorf("%w: compression %q needs top_k >= 1, got %d", ErrConfig, c.Compression, c.TopK)
	} else if enc != compress.EncTopK && c.TopK != 0 {
		return fmt.Errorf("%w: top_k=%d requires compression \"topk\" (got %q)", ErrConfig, c.TopK, c.Compression)
	}
	if c.StalenessDamping < 0 || c.StalenessDamping > 1 {
		return fmt.Errorf("%w: staleness damping %v not in [0, 1]", ErrConfig, c.StalenessDamping)
	}
	if c.ServerByz.Mode != "" {
		if !ValidByzMode(c.ServerByz.Mode) {
			return fmt.Errorf("%w: unknown byzantine server mode %q (want one of %v)",
				ErrConfig, c.ServerByz.Mode, ByzModes())
		}
		if c.ServerByz.Mode != ByzModeHonest && c.FPS < 1 {
			return fmt.Errorf("%w: server byzantine mode %q needs fps >= 1 declared replicas",
				ErrConfig, c.ServerByz.Mode)
		}
	}
	return nil
}

// asyncParams resolves the async tuning knobs to their effective values.
func (c Config) asyncParams() (tau int, damping float64) {
	tau, damping = c.StalenessBound, c.StalenessDamping
	if tau == 0 {
		tau = DefaultStalenessBound
	}
	if damping == 0 {
		damping = DefaultStalenessDamping
	}
	return tau, damping
}

// Cluster is a fully-wired in-process deployment: every node runs an RPC
// server over a fault-injectable transport, and protocol runners drive the
// training loops of Section 5. The deployment is elastic: workers and server
// replicas can join, leave and scale mid-run through the membership layer
// (membership.go), which owns a versioned roster epoch.
type Cluster struct {
	cfg    Config
	wiring Wiring
	clock  Clock
	// net is the fault-injectable transport of the live wiring; nil under
	// other wirings (the discrete-event simulator), in which case the
	// transport-level fault injectors below are inert no-ops and the
	// crash-evidence failure detector has no sever epochs to read.
	net *transport.Faulty

	// memMu guards the node tables and the roster epoch. The tables are
	// append-only — an index, once assigned, permanently names its node and
	// its address — and departure is expressed through the active flags, so
	// protocol state keyed by node index survives roster transitions.
	// Slices handed out by accessors are replaced wholesale on growth,
	// never mutated in place.
	memMu   sync.RWMutex
	epoch   uint64       // roster version; bumped by every transition
	clients []rpc.Caller // one per server replica; see NewCluster

	workerAddrs  []string
	serverAddrs  []string
	workers      []*Worker
	servers      []*Server
	byzServers   []*ByzantineServer // per replica; nil for honest replicas
	workerSrv    []io.Closer
	serverSrv    []io.Closer
	workerActive []bool
	serverActive []bool
	workerByz    []bool // declared-Byzantine flag per worker (joiners: false)
	serverByz    []bool
	crashed      []*atomic.Bool
	// severBase records each node's transport sever epoch at registration;
	// a later advance is the failure-detector evidence crash-detected
	// departure (DepartWorker/DepartServer) requires.
	severBase map[string]uint64

	initParams tensor.Vector
}

// NewCluster shards the data, spawns nw worker nodes and nps server
// replicas over an in-memory network, and returns the ready cluster.
// Byzantine roles are assigned to the last fw workers and last fps servers.
func NewCluster(cfg Config) (*Cluster, error) {
	return NewClusterWith(cfg, nil)
}

// NewClusterWith is NewCluster over an explicit Wiring. A nil wiring selects
// the live default (fault-injectable in-memory transport, pooled clients,
// wall clock); the discrete-event simulator passes its virtual-time wiring
// here. Construction order — sharding, init-params RNG draw, worker seeds,
// replica wiring — is identical either way, so a simulated cluster starts
// from exactly the state its live counterpart would.
func NewClusterWith(cfg Config, wiring Wiring) (*Cluster, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	var shards []*data.Dataset
	var err error
	if cfg.NonIID {
		shards, err = data.PartitionByLabel(cfg.Train, cfg.NW)
	} else {
		shards, err = data.PartitionIID(cfg.Train, cfg.NW, cfg.Seed)
	}
	if err != nil {
		return nil, fmt.Errorf("core: shard data: %w", err)
	}

	if wiring == nil {
		wiring = liveWiring{net: transport.NewFaulty(transport.NewMem())}
	}
	c := &Cluster{
		cfg:       cfg,
		wiring:    wiring,
		clock:     wiring.Clock(),
		severBase: make(map[string]uint64),
	}
	if lw, ok := wiring.(liveWiring); ok {
		c.net = lw.net
	}
	rng := tensor.NewRNG(cfg.Seed)
	c.initParams = cfg.Arch.InitParams(rng)
	// validate() vetted the codec name already.
	encoding, _ := compress.Parse(cfg.Compression)

	// Workers.
	for i := 0; i < cfg.NW; i++ {
		var atk attack.Attack
		var opts []WorkerOption
		if cfg.WorkerMomentum > 0 {
			opts = append(opts, WithWorkerMomentum(cfg.WorkerMomentum))
		}
		if cfg.Deterministic {
			opts = append(opts, WithDeterministicReplies())
		}
		if encoding != compress.EncFP64 {
			// Every worker compresses — Byzantine ones included: the codec
			// is deployment infrastructure, and whether an attack survives
			// quantization is exactly what the ext-compress study measures.
			opts = append(opts, WithCompression(encoding, cfg.TopK))
		}
		if i >= cfg.NW-cfg.FW {
			atk = cfg.WorkerAttack
			if cfg.AttackSelfPeers > 0 {
				opts = append(opts, WithSelfEstimatedPeers(cfg.AttackSelfPeers))
			}
		}
		opts = append(opts, withWorkerClock(c.clock))
		w, err := NewWorker(cfg.Arch, shards[i], cfg.BatchSize, cfg.Seed+uint64(i)+1, atk, opts...)
		if err != nil {
			c.Close()
			return nil, err
		}
		addr := "worker-" + strconv.Itoa(i)
		srv, err := c.wiring.Serve(addr, w)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: start worker %d: %w", i, err)
		}
		c.workers = append(c.workers, w)
		c.workerAddrs = append(c.workerAddrs, addr)
		c.workerSrv = append(c.workerSrv, srv)
		c.workerActive = append(c.workerActive, true)
		c.workerByz = append(c.workerByz, i >= cfg.NW-cfg.FW)
		if c.net != nil {
			c.severBase[addr] = c.net.SeverEpoch(addr)
		}
	}

	// Server replica addresses are fixed before construction so each
	// server knows its peer set.
	for i := 0; i < cfg.NPS; i++ {
		c.serverAddrs = append(c.serverAddrs, "server-"+strconv.Itoa(i))
	}
	for i := 0; i < cfg.NPS; i++ {
		var atk attack.Attack
		if i >= cfg.NPS-cfg.FPS {
			atk = cfg.ServerAttack
		}
		opt, err := newOptimizer(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		// Under the live wiring this is a pooled persistent client
		// (Section 4.1's channel reuse): the steady-state pull loop pays no
		// per-call dial. Each replica owns its own caller — the pool
		// serializes same-peer calls per client, so sharing one across
		// replicas would serialize the replicas' concurrent pulls to the
		// same worker. The caller is bound to the replica's address (so
		// partition cuts know the dial's source) and stamps it as the
		// caller identity (so adversarial handlers can equivocate
		// deterministically per puller).
		client := c.wiring.NewCaller(c.serverAddrs[i])
		c.clients = append(c.clients, client)
		s, err := NewServer(ServerConfig{
			Arch:          cfg.Arch,
			Init:          c.initParams,
			Optimizer:     opt,
			Client:        client,
			Workers:       c.workerAddrs,
			Peers:         c.serverAddrs,
			Attack:        atk,
			Deterministic: cfg.Deterministic,
			Accept:        encoding,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		// Declared-Byzantine replicas get the ByzantineServer wrapper —
		// honest passthrough unless ServerByz names a mode — so scheduled
		// byz-server faults can flip their behaviour at runtime.
		var handler rpc.Handler = s
		var byz *ByzantineServer
		if i >= cfg.NPS-cfg.FPS {
			byz, err = NewByzantineServer(s, cfg.ServerByz.Mode, byzSeed(cfg.Seed, i), cfg.ServerByz.Scale)
			if err != nil {
				c.Close()
				return nil, err
			}
			handler = byz
		}
		srv, err := c.wiring.Serve(c.serverAddrs[i], handler)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: start server %d: %w", i, err)
		}
		c.servers = append(c.servers, s)
		c.byzServers = append(c.byzServers, byz)
		c.serverSrv = append(c.serverSrv, srv)
		c.serverActive = append(c.serverActive, true)
		c.serverByz = append(c.serverByz, i >= cfg.NPS-cfg.FPS)
		c.crashed = append(c.crashed, new(atomic.Bool))
		if c.net != nil {
			c.severBase[c.serverAddrs[i]] = c.net.SeverEpoch(c.serverAddrs[i])
		}
	}
	return c, nil
}

// byzSeed derives a replica's Byzantine noise seed from the cluster seed by
// domain separation (FNV-64a over a tagged message), so it cannot collide
// with the worker seeds (seed+i+1) or the attack streams.
func byzSeed(seed uint64, replica int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte("/byz-server/" + strconv.Itoa(replica)))
	return h.Sum64()
}

func newOptimizer(cfg Config) (*sgd.Optimizer, error) {
	var opts []sgd.Option
	if cfg.Momentum > 0 {
		opts = append(opts, sgd.WithMomentum(cfg.Momentum))
	}
	opt, err := sgd.New(cfg.LR, opts...)
	if err != nil {
		return nil, fmt.Errorf("core: optimizer: %w", err)
	}
	return opt, nil
}

// Close shuts every node down and waits for their goroutines.
func (c *Cluster) Close() {
	c.memMu.RLock()
	clients := append([]rpc.Caller(nil), c.clients...)
	srvs := append(append([]io.Closer(nil), c.workerSrv...), c.serverSrv...)
	c.memMu.RUnlock()
	for _, cl := range clients {
		closeCaller(cl)
	}
	for _, s := range srvs {
		if s != nil {
			_ = s.Close()
		}
	}
}

// Server returns replica i (0 is the primary for single-server protocols).
// Indices are stable across roster transitions: a departed replica keeps its
// index (and remains inspectable), it just stops being part of the roster.
func (c *Cluster) Server(i int) *Server {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.servers[i]
}

// Servers returns the number of server replica slots ever created (active
// or departed); see Roster for the live view.
func (c *Cluster) Servers() int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return len(c.servers)
}

// Worker returns worker i (stable index, like Server).
func (c *Cluster) Worker(i int) *Worker {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.workers[i]
}

// Workers returns the number of worker slots ever created.
func (c *Cluster) Workers() int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return len(c.workers)
}

// CrashServer injects a crash of server replica i: subsequent dials to it
// fail and the protocol runners stop driving its loop.
func (c *Cluster) CrashServer(i int) {
	c.memMu.RLock()
	flag, addr := c.crashed[i], c.serverAddrs[i]
	c.memMu.RUnlock()
	flag.Store(true)
	if c.net != nil {
		c.net.Crash(addr)
	}
}

// serverCrashed reports whether replica i is currently crash-injected.
func (c *Cluster) serverCrashed(i int) bool {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.crashed[i].Load()
}

// primary returns the lowest-index active, non-crashed server replica — the
// fail-over order of the crash-tolerant baseline. ok is false when every
// replica is down or departed.
func (c *Cluster) primary() (int, bool) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.primaryLocked()
}

func (c *Cluster) primaryLocked() (int, bool) {
	for i := range c.crashed {
		if c.serverActive[i] && !c.crashed[i].Load() {
			return i, true
		}
	}
	return 0, false
}

// CrashWorker injects a crash of worker i.
func (c *Cluster) CrashWorker(i int) {
	if c.net != nil {
		c.net.Crash(c.WorkerAddr(i))
	}
}

// DelayWorker makes worker i a straggler: every pull to it waits d first.
func (c *Cluster) DelayWorker(i int, d time.Duration) {
	if c.net != nil {
		c.net.SetDelay(c.WorkerAddr(i), d)
	}
}

// SlowWorker makes worker i serve every request d late — a slow node rather
// than a slow link: unlike DelayWorker (which delays dials, paid once per
// connection by pooled clients), the service delay applies to every request
// even over persistent connections, which is what a steady straggler in the
// async-vs-lockstep comparisons needs. d = 0 clears the fault.
func (c *Cluster) SlowWorker(i int, d time.Duration) {
	c.Worker(i).SetServeDelay(d)
}

// WorkerAddr returns worker i's network address ("worker-<i>"), the name
// partition groups and chaos programs refer to nodes by.
func (c *Cluster) WorkerAddr(i int) string {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.workerAddrs[i]
}

// ServerAddr returns server replica i's network address ("server-<i>").
func (c *Cluster) ServerAddr(i int) string {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.serverAddrs[i]
}

// Partition blocks traffic between the two node groups (addresses from
// WorkerAddr/ServerAddr) and severs established connections crossing the
// cut, until HealPartitions. Server-side dials carry their replica's source
// address, so server-server cuts work; workers never dial, so a worker-side
// group entry cuts the servers' pulls to it.
func (c *Cluster) Partition(groupA, groupB []string) {
	if c.net != nil {
		c.net.Partition(groupA, groupB)
	}
}

// HealPartitions removes every partition injected so far. Link-fault
// programs and delays stay in place — healing restores reachability, not
// link quality.
func (c *Cluster) HealPartitions() {
	if c.net != nil {
		c.net.Heal()
	}
}

// SetWorkerLinkFault installs a seeded chaos program on every connection to
// worker i: each framed message is dropped, duplicated, reordered or
// corrupted with the program's probabilities. A zero LinkFault clears it.
func (c *Cluster) SetWorkerLinkFault(i int, lf transport.LinkFault, seed uint64) {
	if c.net != nil {
		c.net.SetLinkFault(c.WorkerAddr(i), lf, seed)
	}
}

// SetServerLinkFault is SetWorkerLinkFault for server replica i's links.
func (c *Cluster) SetServerLinkFault(i int, lf transport.LinkFault, seed uint64) {
	if c.net != nil {
		c.net.SetLinkFault(c.ServerAddr(i), lf, seed)
	}
}

// WorkerLinkStats returns the fault decisions taken so far by worker i's
// current link program (zero when none is installed).
func (c *Cluster) WorkerLinkStats(i int) transport.LinkStats {
	if c.net == nil {
		return transport.LinkStats{}
	}
	return c.net.LinkStats(c.WorkerAddr(i))
}

// ServerLinkStats is WorkerLinkStats for server replica i.
func (c *Cluster) ServerLinkStats(i int) transport.LinkStats {
	if c.net == nil {
		return transport.LinkStats{}
	}
	return c.net.LinkStats(c.ServerAddr(i))
}

// SetServerByzMode flips the ByzantineServer wrapper of replica i to the
// given mode — the byz-server scheduled fault. Only declared-Byzantine
// replicas (the last fps) carry the wrapper; flipping an honest replica is
// an error, because the protocol runners drive honest replicas' training
// loops and an adversarial handler under a driven loop would break the
// declared f/fs resilience budget rather than test it.
func (c *Cluster) SetServerByzMode(i int, mode string) error {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	if i < 0 || i >= len(c.byzServers) {
		return fmt.Errorf("%w: server %d of %d", ErrConfig, i, len(c.byzServers))
	}
	byz := c.byzServers[i]
	if byz == nil {
		return fmt.Errorf("%w: server %d is not a declared-Byzantine replica (last fps=%d of nps=%d)",
			ErrConfig, i, c.cfg.FPS, c.cfg.NPS)
	}
	return byz.SetMode(mode)
}

// ByzServer returns replica i's ByzantineServer wrapper, or nil for honest
// replicas.
func (c *Cluster) ByzServer(i int) *ByzantineServer {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.byzServers[i]
}

// WireStats returns the summed byte accounting of every server replica's
// pooled client — the cluster's whole pull traffic, since workers never
// dial. Snapshot before and after a run (or read Result.Wire, which the
// protocol runners populate with exactly that delta) to measure one run's
// bytes on the wire. Callers that keep no byte accounting (the simulator's
// direct-dispatch caller ships no frames) contribute zero.
func (c *Cluster) WireStats() rpc.WireStats {
	c.memMu.RLock()
	clients := append([]rpc.Caller(nil), c.clients...)
	c.memMu.RUnlock()
	var s rpc.WireStats
	for _, cl := range clients {
		if counted, ok := cl.(interface{ Stats() rpc.WireStats }); ok {
			s = s.Add(counted.Stats())
		}
	}
	return s
}

// RestoreServerCheckpoint restores replica i from checkpoint bytes and
// resets every worker's compression error-feedback residual. The residual
// is the un-transmitted remainder of gradients computed against the
// pre-restore timeline; replaying it against the rolled-back model would
// inject corrections for updates that no longer exist. (With several
// replicas, a real deployment restores them together; the residual reset is
// idempotent, so restoring each replica through this method is safe.)
func (c *Cluster) RestoreServerCheckpoint(i int, r io.Reader) error {
	c.memMu.RLock()
	if i < 0 || i >= len(c.servers) {
		n := len(c.servers)
		c.memMu.RUnlock()
		return fmt.Errorf("%w: server %d of %d", ErrConfig, i, n)
	}
	srv := c.servers[i]
	workers := append([]*Worker(nil), c.workers...)
	c.memMu.RUnlock()
	if err := srv.LoadCheckpoint(r); err != nil {
		return err
	}
	for _, w := range workers {
		w.ResetCompression()
	}
	return nil
}
