package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"garfield/internal/core"
	"garfield/internal/data"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// The benchmark times the program from outside, through seams the program
// already has: a core.Wiring that wraps every node's rpc.Handler and every
// replica's rpc.Caller, a model.Model wrapper passed as Config.Arch, and a
// counting transport.Network under transport.NewFaulty. Nothing inside the
// program is instrumented.

// Span is one timed interval at a layer boundary.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Step   uint32 `json:"step"`
	// Replica is the node whose code the span ran on: the pulling replica
	// for rpc spans, the serving node for core and model spans.
	Replica string `json:"replica"`
	Shard   uint16 `json:"shard,omitempty"`
	Err     bool   `json:"err,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// pullKey is what a serve span shares with the pull it answers.
type pullKey struct {
	from  string
	step  uint32
	kind  rpc.Kind
	shard uint16
}

// serveRef links a model.gradient span to the serve span whose request
// vector it computes on.
type serveRef struct {
	id      int64
	step    uint32
	replica string
}

// captured is one pull's replies, copied for the GAR replay.
type captured struct {
	kind    rpc.Kind
	replica string
	shard   uint16
	vecs    []tensor.Vector
}

// Tracer keeps spans in memory while enabled. Disabled, every wrapper costs
// one atomic load per call.
type Tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span
	pulls map[pullKey]int64

	// vecs maps the first element of a request vector being served to its
	// serve span: a worker computes its gradient on exactly that vector.
	vecs sync.Map

	// captures keeps the first successful pull of each (replica, kind,
	// shard) in the traced window, copied for the GAR replay.
	captures map[pullKey]captured

	declined   atomic.Int64
	pullErrors atomic.Int64
}

func newTracer() *Tracer {
	return &Tracer{epoch: time.Now(), pulls: make(map[pullKey]int64)}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start clears recorded state and enables tracing.
func (t *Tracer) start() {
	t.mu.Lock()
	t.spans = make([]Span, 0, 1<<16)
	t.pulls = make(map[pullKey]int64)
	t.captures = make(map[pullKey]captured)
	t.mu.Unlock()
	t.declined.Store(0)
	t.pullErrors.Store(0)
	t.on.Store(true)
}

func (t *Tracer) stop() { t.on.Store(false) }

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *Tracer) registerPull(k pullKey) int64 {
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.pulls[k] = id
	t.mu.Unlock()
	return id
}

func (t *Tracer) pullOf(k pullKey) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pulls[k]
}

func (t *Tracer) capture(req rpc.Request, replica string, replies []rpc.Reply) {
	k := pullKey{from: replica, kind: req.Kind, shard: req.Shard}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, done := t.captures[k]; done {
		return
	}
	vecs := make([]tensor.Vector, len(replies))
	for i, r := range replies {
		vecs[i] = r.Vec.Clone()
	}
	t.captures[k] = captured{kind: req.Kind, replica: replica, shard: req.Shard, vecs: vecs}
}

func (t *Tracer) capturedPulls() []captured {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]captured, 0, len(t.captures))
	for _, c := range t.captures {
		out = append(out, c)
	}
	return out
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeJSONL writes spans one JSON object per line.
func writeJSONL(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func kindName(k rpc.Kind) string {
	switch k {
	case rpc.KindGetGradient:
		return "gradient"
	case rpc.KindGetModel:
		return "model"
	case rpc.KindGetAggrGrad:
		return "aggr_grad"
	case rpc.KindPing:
		return "ping"
	case rpc.KindGetShardPart:
		return "part"
	}
	return "other"
}

// roundClock records when the observed replica starts a round: its caller's
// first gradient pull carrying a step other than the previous one. It is
// the only instrument that records anything in an untraced run.
type roundClock struct {
	mu      sync.Mutex
	started bool
	last    uint32
	starts  []time.Time
}

func (r *roundClock) observe(step uint32) {
	now := time.Now()
	r.mu.Lock()
	if !r.started || step != r.last {
		r.starts = append(r.starts, now)
		r.started, r.last = true, step
	}
	r.mu.Unlock()
}

func (r *roundClock) reset() {
	r.mu.Lock()
	r.started, r.starts = false, nil
	r.mu.Unlock()
}

func (r *roundClock) snapshot() []time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Time(nil), r.starts...)
}

// benchWiring is the live wiring (rpc serving loops and pooled clients over
// the fault-injectable in-memory transport, wall clock) with every handler
// and caller wrapped.
type benchWiring struct {
	net      *transport.Faulty
	dials    *countingNet
	tr       *Tracer
	rounds   *roundClock
	observed string
}

var _ core.Wiring = (*benchWiring)(nil)

func newBenchWiring(tr *Tracer, observed string) *benchWiring {
	cn := &countingNet{Network: transport.NewMem()}
	return &benchWiring{
		net: transport.NewFaulty(cn), dials: cn, tr: tr,
		rounds: &roundClock{}, observed: observed,
	}
}

func (w *benchWiring) Serve(addr string, h rpc.Handler) (io.Closer, error) {
	return rpc.Serve(w.net, addr, &tracedHandler{inner: h, tr: w.tr, addr: addr})
}

func (w *benchWiring) NewCaller(self string) rpc.Caller {
	tc := &tracedCaller{inner: rpc.NewPooledClientAs(w.net.Bind(self), self), self: self, tr: w.tr}
	if self == w.observed {
		tc.rounds = w.rounds
	}
	return tc
}

func (w *benchWiring) Clock() core.Clock { return core.WallClock() }

// countingNet counts dials reaching the transport.
type countingNet struct {
	transport.Network
	n atomic.Int64
}

func (c *countingNet) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c.n.Add(1)
	return c.Network.Dial(ctx, addr)
}

// tracedCaller wraps a replica's caller. It forwards PullFirstQInto (so the
// fused decode-into-arena path stays), Stats (so Result.Wire keeps counting)
// and Close (so pooled connections are released).
type tracedCaller struct {
	inner  rpc.Caller
	self   string
	tr     *Tracer
	rounds *roundClock
}

var _ rpc.Caller = (*tracedCaller)(nil)

func (c *tracedCaller) begin(req rpc.Request) (id, start int64) {
	if c.rounds != nil && req.Kind == rpc.KindGetGradient {
		c.rounds.observe(req.Step)
	}
	if !c.tr.on.Load() {
		return 0, 0
	}
	id = c.tr.registerPull(pullKey{from: c.self, step: req.Step, kind: req.Kind, shard: req.Shard})
	return id, c.tr.now()
}

func (c *tracedCaller) end(id, start int64, verb string, req rpc.Request, err error) {
	if id == 0 {
		return
	}
	end := c.tr.now()
	if err != nil {
		c.tr.pullErrors.Add(1)
	}
	c.tr.add(Span{
		ID: id, Name: "rpc." + verb + "_" + kindName(req.Kind), Start: start, End: end,
		Step: req.Step, Replica: c.self, Shard: req.Shard, Err: err != nil,
	})
}

func (c *tracedCaller) Call(ctx context.Context, addr string, req rpc.Request) (tensor.Vector, error) {
	id, start := c.begin(req)
	v, err := c.inner.Call(ctx, addr, req)
	c.end(id, start, "call", req, err)
	return v, err
}

func (c *tracedCaller) PullFirstQ(ctx context.Context, peers []string, q int, req rpc.Request) ([]rpc.Reply, error) {
	id, start := c.begin(req)
	replies, err := c.inner.PullFirstQ(ctx, peers, q, req)
	c.end(id, start, "pull", req, err)
	if id != 0 && err == nil {
		c.tr.capture(req, c.self, replies)
	}
	return replies, err
}

func (c *tracedCaller) PullFirstQInto(ctx context.Context, peers []string, q int, req rpc.Request, slots rpc.ReplySlots) ([]rpc.Reply, error) {
	id, start := c.begin(req)
	replies, err := c.inner.PullFirstQInto(ctx, peers, q, req, slots)
	c.end(id, start, "pull", req, err)
	if id != 0 && err == nil {
		c.tr.capture(req, c.self, replies)
	}
	return replies, err
}

// Stats forwards the inner caller's byte accounting (core.Cluster.WireStats
// reads it through this method).
func (c *tracedCaller) Stats() rpc.WireStats {
	if s, ok := c.inner.(interface{ Stats() rpc.WireStats }); ok {
		return s.Stats()
	}
	return rpc.WireStats{}
}

// Close releases the inner caller's pooled connections. core.Cluster.Close
// closes callers that implement io.Closer.
func (c *tracedCaller) Close() error {
	switch cl := c.inner.(type) {
	case io.Closer:
		return cl.Close()
	case interface{ Close() }:
		cl.Close()
	}
	return nil
}

// tracedHandler wraps a node's rpc.Handler with a serve span whose parent
// is the pull it answers.
type tracedHandler struct {
	inner rpc.Handler
	tr    *Tracer
	addr  string
}

func (h *tracedHandler) Handle(req rpc.Request) rpc.Response {
	if !h.tr.on.Load() {
		return h.inner.Handle(req)
	}
	id := h.tr.nextID.Add(1)
	parent := h.tr.pullOf(pullKey{from: req.From, step: req.Step, kind: req.Kind, shard: req.Shard})
	var key *float64
	if len(req.Vec) > 0 {
		key = &req.Vec[0]
		h.tr.vecs.Store(key, serveRef{id: id, step: req.Step, replica: h.addr})
	}
	start := h.tr.now()
	resp := h.inner.Handle(req)
	end := h.tr.now()
	if key != nil {
		h.tr.vecs.Delete(key)
	}
	if !resp.OK {
		h.tr.declined.Add(1)
	}
	h.tr.add(Span{
		ID: id, Parent: parent, Name: "core.serve_" + kindName(req.Kind), Start: start, End: end,
		Step: req.Step, Replica: h.addr, Shard: req.Shard, Err: !resp.OK,
	})
	return resp
}

// tracedModel wraps the architecture every node shares and times each
// gradient, linked to the serve span whose request vector it runs on.
type tracedModel struct {
	model.Model
	tr *Tracer
}

func (m tracedModel) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	if !m.tr.on.Load() {
		return m.Model.Gradient(params, batch)
	}
	start := m.tr.now()
	g, err := m.Model.Gradient(params, batch)
	end := m.tr.now()
	s := Span{ID: m.tr.nextID.Add(1), Name: "model.gradient", Start: start, End: end, Err: err != nil}
	if len(params) > 0 {
		if ref, ok := m.tr.vecs.Load(&params[0]); ok {
			r := ref.(serveRef)
			s.Parent, s.Step, s.Replica = r.id, r.step, r.replica
		}
	}
	m.tr.add(s)
	return g, err
}
