package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"garfield/internal/attack"
	"garfield/internal/compress"
	"garfield/internal/data"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// Worker is the passive node of Garfield's design (Section 3.2): it owns a
// data shard and responds to gradient requests. The request carries the
// requester's model state (the pull model folds model dissemination into the
// gradient pull), and the worker answers with a gradient estimate computed
// on its next mini-batch.
//
// A Byzantine worker is the same object with a non-nil attack: the paper's
// ByzantineWorker inherits from Worker and only corrupts its replies.
type Worker struct {
	arch      model.Model
	batchSize int
	atk       attack.Attack

	// momentum enables worker-side (distributed) momentum: the worker
	// replies with an exponentially-smoothed gradient instead of the raw
	// estimate. The paper points at this line of work as a seamless
	// variance-reduction extension ("they basically only change the
	// optimization function", Section 8); reducing the gradient variance
	// is what restores the GARs' resilience condition when it is
	// violated.
	momentum float64
	// selfPeers makes a Byzantine worker estimate the honest gradient
	// distribution by drawing that many extra mini-batch gradients from
	// its own shard and feeding them to collusion-style attacks
	// (little-is-enough, fall-of-empires) as the peer sample.
	selfPeers int

	// comp, when non-nil, is the worker's gradient compressor: a reply to
	// a puller that advertises the matching Accept encoding ships
	// compressed (internal/compress), everyone else gets the fp64
	// passthrough. The compressor carries the per-worker error-feedback
	// residual for top-k, so it must live here — where the gradient stream
	// lives — not in the transport.
	comp *compress.Compressor

	mu       sync.Mutex
	sampler  *data.Sampler
	velocity tensor.Vector

	// serveDelay is an injected per-request service delay in nanoseconds —
	// a slow node (overloaded or under-provisioned worker) as opposed to a
	// slow link. Set through Cluster.SlowWorker / SetServeDelay. The delay
	// sleeps on clock, so a simulated slow worker burns virtual time, not
	// wall time.
	serveDelay atomic.Int64
	clock      Clock

	// det enables deterministic replies: the worker computes one reply
	// per step and serves it to every puller — the paper's semantics of a
	// worker broadcasting its gradient estimate to all parameter servers —
	// instead of drawing a fresh mini-batch per pull. detMu serializes the
	// per-step computation so the sampler advances exactly once per step
	// regardless of how many replicas pull concurrently.
	det       bool
	detMu     sync.Mutex
	detStep   uint32
	detHas    bool
	detOK     bool
	detReply  tensor.Vector
	detParams tensor.Vector
	// detPayloads caches the step's compressed replies alongside detReply,
	// keyed by the pulled coordinate range ([0, d) for full pulls), so the
	// error-feedback residual advances exactly once per (step, range)
	// however many replicas pull — the property that keeps deterministic
	// runs bit-identical under compression. Ranges within a step must be
	// disjoint (the sharded protocol's are, by construction): top-k folds
	// and updates only the pulled residual slice, so disjoint-range
	// compressions commute, while overlapping ones would double-advance the
	// shared coordinates.
	detPayloads map[[2]uint32][]byte
}

var _ rpc.Handler = (*Worker)(nil)

// WorkerOption configures optional worker behaviour.
type WorkerOption func(*Worker) error

// WithWorkerMomentum enables worker-side momentum with coefficient
// mu in (0, 1).
func WithWorkerMomentum(mu float64) WorkerOption {
	return func(w *Worker) error {
		if mu <= 0 || mu >= 1 {
			return fmt.Errorf("%w: worker momentum %v not in (0,1)", ErrConfig, mu)
		}
		w.momentum = mu
		return nil
	}
}

// WithSelfEstimatedPeers makes the worker's attack observe k self-estimated
// honest gradients, enabling the collusion attacks without real
// omniscience.
func WithSelfEstimatedPeers(k int) WorkerOption {
	return func(w *Worker) error {
		if k < 1 {
			return fmt.Errorf("%w: self-estimated peers %d < 1", ErrConfig, k)
		}
		w.selfPeers = k
		return nil
	}
}

// WithDeterministicReplies makes the worker serve one cached reply per
// step; see Config.Deterministic.
func WithDeterministicReplies() WorkerOption {
	return func(w *Worker) error {
		w.det = true
		return nil
	}
}

// withWorkerClock routes the worker's time reads (the serve-delay sleep)
// through the cluster's clock, so injected service delays cost virtual time
// under the simulator wiring.
func withWorkerClock(clock Clock) WorkerOption {
	return func(w *Worker) error {
		if clock == nil {
			return fmt.Errorf("%w: nil worker clock", ErrConfig)
		}
		w.clock = clock
		return nil
	}
}

// WithCompression makes the worker compress gradient replies with the given
// codec for pullers that advertise it (Request.Accept); topK is the
// coordinate budget of the top-k codec, ignored by the others. EncFP64 is a
// no-op (passthrough is the default).
func WithCompression(enc compress.Encoding, topK int) WorkerOption {
	return func(w *Worker) error {
		if enc == compress.EncFP64 {
			return nil
		}
		c, err := compress.NewCompressor(enc, topK)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
		w.comp = c
		return nil
	}
}

// NewWorker returns a worker over one data shard. atk may be nil for an
// honest worker.
func NewWorker(arch model.Model, shard *data.Dataset, batchSize int, seed uint64, atk attack.Attack, opts ...WorkerOption) (*Worker, error) {
	if arch == nil {
		return nil, fmt.Errorf("%w: nil model", ErrConfig)
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("%w: batch size %d", ErrConfig, batchSize)
	}
	s, err := data.NewSampler(shard, seed)
	if err != nil {
		return nil, fmt.Errorf("core: worker: %w", err)
	}
	if atk == nil {
		atk = attack.None{}
	}
	w := &Worker{arch: arch, batchSize: batchSize, atk: atk, sampler: s, clock: WallClock()}
	for _, opt := range opts {
		if err := opt(w); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// ComputeGradient draws the next mini-batch and estimates the gradient at
// params — the worker's "main job" in the paper's design. With momentum
// enabled, the reply is the smoothed velocity v = mu*v + g.
func (w *Worker) ComputeGradient(params tensor.Vector) (tensor.Vector, error) {
	w.mu.Lock()
	batch := w.sampler.Next(w.batchSize)
	w.mu.Unlock()
	g, err := w.arch.Gradient(params, batch)
	if err != nil {
		return nil, fmt.Errorf("core: worker gradient: %w", err)
	}
	if w.momentum == 0 {
		return g, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.velocity == nil || len(w.velocity) != len(g) {
		w.velocity = tensor.New(len(g))
	}
	for i := range w.velocity {
		w.velocity[i] = w.momentum*w.velocity[i] + g[i]
	}
	return w.velocity.Clone(), nil
}

// estimatePeers draws selfPeers extra gradients from the worker's own shard
// so collusion attacks can observe a sample of the honest distribution.
func (w *Worker) estimatePeers(params tensor.Vector) []tensor.Vector {
	if w.selfPeers == 0 {
		return nil
	}
	peers := make([]tensor.Vector, 0, w.selfPeers)
	for i := 0; i < w.selfPeers; i++ {
		w.mu.Lock()
		batch := w.sampler.Next(w.batchSize)
		w.mu.Unlock()
		g, err := w.arch.Gradient(params, batch)
		if err != nil {
			continue
		}
		peers = append(peers, g)
	}
	return peers
}

// SetServeDelay makes every subsequent request to the worker take at least d
// of service time — the slow-node fault of the async experiments. d = 0
// clears the delay.
func (w *Worker) SetServeDelay(d time.Duration) {
	w.serveDelay.Store(int64(d))
}

// Handle implements rpc.Handler: it serves KindGetGradient requests and
// declines everything else.
func (w *Worker) Handle(req rpc.Request) rpc.Response {
	if d := w.serveDelay.Load(); d > 0 {
		w.clock.Sleep(time.Duration(d))
	}
	switch req.Kind {
	case rpc.KindGetGradient:
		if req.Vec == nil {
			return rpc.Response{}
		}
		if req.Ranged() && int(req.Hi) > len(req.Vec) {
			// A ranged pull's slice must fit the model the puller sent;
			// anything else is a malformed or Byzantine request. Declining is
			// the worker's only verdict — it holds no model state to
			// re-bound the range against.
			return rpc.Response{}
		}
		if w.det {
			return w.handleDeterministic(req)
		}
		g, err := w.ComputeGradient(req.Vec)
		if err != nil {
			return rpc.Response{}
		}
		out, ok := w.atk.Apply(g, w.estimatePeers(req.Vec))
		if !ok {
			return rpc.Response{} // omission fault
		}
		return w.reply(req, out)
	case rpc.KindPing:
		return rpc.Response{OK: true}
	default:
		return rpc.Response{}
	}
}

// reply wraps a computed gradient into a response under the negotiated
// payload encoding: compressed when the puller's Accept matches the
// worker's codec exactly, fp64 passthrough otherwise (the mixed-fleet
// fallback). A ranged request (sharded aggregation) receives only its
// [Lo, Hi) slice — compressed per shard with a proportional top-k budget, or
// sliced passthrough. The compressed payload is borrowed from the shared
// buffer pool and handed back by the RPC serving loop after the frame is
// written, so steady-state compression allocates no payload slices. For
// top-k the call also advances the error-feedback residual — each pull is a
// fresh gradient estimate in live mode, so each pull deposits its own
// un-sent remainder (a ranged pull deposits only its slice's).
func (w *Worker) reply(req rpc.Request, vec tensor.Vector) rpc.Response {
	lo, hi := 0, len(vec)
	if req.Ranged() {
		lo, hi = int(req.Lo), int(req.Hi)
	}
	if w.comp == nil || req.Accept != w.comp.Encoding() {
		return rpc.Response{OK: true, Vec: vec[lo:hi]}
	}
	buf := compress.GetBuf(w.comp.MaxEncodedSize(hi - lo))
	return rpc.Response{
		OK:          true,
		Enc:         w.comp.Encoding(),
		Payload:     w.comp.CompressRange(buf, vec, lo, hi),
		FreePayload: true,
	}
}

// handleDeterministic serves gradient pulls in deterministic mode: the
// first pull of a step computes the reply (post-attack, so stochastic
// attacks also draw once per step) under detMu, and every later pull of the
// same step receives the cached vector. The reply is computed at the first
// puller's parameters; replicated deterministic runs keep their replicas in
// lockstep (sync quorums plus the phased round, in which every replica
// pulls gradients before any updates its model), so every puller carries
// identical parameters and the choice of "first" does not matter.
func (w *Worker) handleDeterministic(req rpc.Request) rpc.Response {
	w.detMu.Lock()
	defer w.detMu.Unlock()
	// The cache matches on both the step and the puller's parameters:
	// protocol segments (fault schedules, chunked runs) restart their
	// step numbering, so a bare step match could replay a reply from a
	// previous segment against evolved parameters.
	if w.detHas && w.detStep == req.Step && req.Vec.Equal(w.detParams) {
		if !w.detOK {
			return rpc.Response{}
		}
		return w.detResponse(req)
	}
	w.detStep, w.detHas, w.detOK = req.Step, true, false
	w.detReply, w.detParams, w.detPayloads = nil, req.Vec.Clone(), nil
	g, err := w.ComputeGradient(req.Vec)
	if err != nil {
		return rpc.Response{}
	}
	out, ok := w.atk.Apply(g, w.estimatePeers(req.Vec))
	if !ok {
		return rpc.Response{} // omission fault, replayed for the step
	}
	w.detOK, w.detReply = true, out
	return w.detResponse(req)
}

// detResponse serves the step's cached reply under the puller's negotiated
// encoding and coordinate range. Compressed payloads are produced lazily,
// once per (step, range), into cached (non-pooled) buffers every puller of
// that range shares: the error-feedback residual must advance once per
// gradient estimate per range, not once per replica pull, or the run would
// depend on pull arrival order. Callers hold detMu.
func (w *Worker) detResponse(req rpc.Request) rpc.Response {
	lo, hi := 0, len(w.detReply)
	if req.Ranged() {
		lo, hi = int(req.Lo), int(req.Hi)
		if hi > len(w.detReply) {
			return rpc.Response{}
		}
	}
	if w.comp != nil && req.Accept == w.comp.Encoding() {
		key := [2]uint32{uint32(lo), uint32(hi)}
		p, ok := w.detPayloads[key]
		if !ok {
			p = w.comp.CompressRange(make([]byte, 0, w.comp.MaxEncodedSize(hi-lo)), w.detReply, lo, hi)
			if w.detPayloads == nil {
				w.detPayloads = make(map[[2]uint32][]byte)
			}
			w.detPayloads[key] = p
		}
		return rpc.Response{OK: true, Enc: w.comp.Encoding(), Payload: p}
	}
	return rpc.Response{OK: true, Vec: w.detReply[lo:hi]}
}

// ResetCompression clears the compressor's error-feedback residual (a no-op
// without compression). Checkpoint restores call it through the cluster: the
// accumulated residual encodes corrections for model updates the restored
// timeline no longer contains.
func (w *Worker) ResetCompression() {
	if w.comp != nil {
		w.comp.Reset()
	}
}

// compressionResidualNorm exposes the pending error-feedback residual to
// tests (0 without compression).
func (w *Worker) compressionResidualNorm() float64 {
	if w.comp == nil {
		return 0
	}
	return w.comp.ResidualNorm()
}
