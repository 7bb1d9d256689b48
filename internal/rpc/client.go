package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"garfield/internal/tensor"
)

// Caller is the pull-call contract the protocol layer programs against: one
// request/response round trip plus the first-q-of-n collection primitive.
// PooledClient implements it over the network; the discrete-event
// simulator's caller implements it over virtual-time dispatch.
type Caller interface {
	// Call performs one request/response round trip with a single peer.
	Call(ctx context.Context, addr string, req Request) (tensor.Vector, error)
	// PullFirstQ fans req out to every peer and returns the fastest q
	// replies, cancelling the stragglers.
	PullFirstQ(ctx context.Context, peers []string, q int, req Request) ([]Reply, error)
	// PullFirstQInto is PullFirstQ with caller-owned decode destinations:
	// peer i's reply decodes directly into *slots.ReplySlot(i), reusing its
	// capacity, instead of allocating a fresh vector per reply — the fused
	// decode-aggregate path (gar.ReplyArena implements ReplySlots). The
	// returned Reply.Vec values alias the slots and are valid until the next
	// pull against the same slots; a nil slots degrades to PullFirstQ.
	PullFirstQInto(ctx context.Context, peers []string, q int, req Request, slots ReplySlots) ([]Reply, error)
}

// ReplySlots provides per-peer decode destinations for a pull round. Slot i
// is resolved once, sequentially, before the fan-out spawns its goroutines —
// implementations may grow backing storage inside ReplySlot but the returned
// pointers must stay valid afterwards (each pull goroutine writes only
// through its own resolved pointer).
type ReplySlots interface {
	ReplySlot(i int) *tensor.Vector
}

// stamp fills in the caller identity on requests that lack one.
func stamp(req Request, self string) Request {
	if req.From == "" {
		req.From = self
	}
	return req
}

var (
	// ErrQuorum is returned by PullFirstQ when fewer than q peers replied
	// successfully before the context expired or all calls failed.
	ErrQuorum = errors.New("rpc: quorum not reached")

	// ErrNotServed is returned by Call when the peer answered but had
	// nothing to serve (Response.OK == false).
	ErrNotServed = errors.New("rpc: peer declined request")

	// ErrMismatchedReply is returned when a reply's request echo does not
	// match the call that read it — the stream delivered some other
	// request's response (e.g. a chaos link duplicated a request frame and
	// desynchronized the strict request/response conversation). The reply
	// may be authentic and checksummed, but it answers the wrong question;
	// callers treat it as a transport failure, never as data.
	ErrMismatchedReply = errors.New("rpc: reply does not correlate with the request")
)

// correlate checks a decoded response against the request that awaited it.
// A zero echo on a decline is the server's "anonymous decline" for an
// unreadable (corrupted/malformed) request and passes; anything else must
// echo the request exactly.
func correlate(req Request, resp Response) error {
	if resp.EchoKind == req.Kind && resp.EchoStep == req.Step {
		return nil
	}
	if !resp.OK && resp.EchoKind == 0 && resp.EchoStep == 0 {
		return nil
	}
	return fmt.Errorf("%w: got %v/step %d for %v/step %d",
		ErrMismatchedReply, resp.EchoKind, resp.EchoStep, req.Kind, req.Step)
}

// wrapCtx surfaces context cancellation as the root cause when a connection
// was torn down because the deadline passed.
func wrapCtx(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// Reply pairs a peer address with the vector it returned.
type Reply struct {
	From string
	Vec  tensor.Vector
}

type pullResult struct {
	reply Reply
	err   error
}

type pullTask struct {
	c    *PooledClient
	ctx  context.Context
	peer string
	req  Request
	dst  *tensor.Vector // the fused reply slot; nil decodes into a fresh vector
	out  chan<- pullResult
	wg   *sync.WaitGroup
}

func runPullTask(t *pullTask) {
	defer t.wg.Done()
	vec, err := t.c.callInto(t.ctx, t.peer, t.req, t.dst)
	t.out <- pullResult{reply: Reply{From: t.peer, Vec: vec}, err: err}
}

// pullFirstQ fans the request out to every peer in parallel and returns as
// soon as q replies have arrived, cancelling the outstanding calls. With
// q == len(peers) it behaves synchronously (wait for everyone); with
// q < len(peers) it tolerates len(peers)-q slow, crashed or silent peers —
// exactly the (q_w <= n_w) contract of the paper's get_gradients.
//
// The returned replies preserve arrival order (fastest first). When fewer
// than q replies arrive before ctx expires, the successful prefix is
// returned along with ErrQuorum.
//
// With non-nil slots (the fused decode path), peer i's reply decodes into
// *slots.ReplySlot(i). Slots are resolved in this goroutine, before any task
// starts, because resolving may grow the slot table; each spawned task then
// only writes through its own pre-resolved pointer, and the deferred
// wg.Wait guarantees no task outlives the call — so the caller may reuse the
// slots for the next round the moment this returns.
func pullFirstQ(ctx context.Context, c *PooledClient, peers []string, q int, req Request, slots ReplySlots) ([]Reply, error) {
	if q <= 0 || q > len(peers) {
		return nil, fmt.Errorf("rpc: invalid quorum %d of %d peers", q, len(peers))
	}
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan pullResult, len(peers))
	var wg sync.WaitGroup
	// One flat task slab and a named goroutine body instead of per-peer
	// closures: the fan-out itself costs two allocations however many peers
	// participate.
	tasks := make([]pullTask, len(peers))
	for i, peer := range peers {
		tasks[i] = pullTask{c: c, ctx: subCtx, peer: peer, req: req, out: results, wg: &wg}
		if slots != nil {
			tasks[i].dst = slots.ReplySlot(i)
		}
	}
	for i := range tasks {
		wg.Add(1)
		go runPullTask(&tasks[i])
	}
	// Drain the results channel fully once all calls returned so the
	// goroutines above never block; the buffer already guarantees that,
	// the wait guarantees no goroutine outlives the call.
	defer wg.Wait()

	replies := make([]Reply, 0, q)
	failures := 0
	for range peers {
		select {
		case r := <-results:
			if r.err != nil {
				failures++
				if failures > len(peers)-q {
					return replies, fmt.Errorf("%w: %d/%d failed, last: %v",
						ErrQuorum, failures, len(peers), r.err)
				}
				continue
			}
			replies = append(replies, r.reply)
			if len(replies) == q {
				cancel() // stragglers are no longer needed
				return replies, nil
			}
		case <-ctx.Done():
			return replies, fmt.Errorf("%w: %d/%d replies before deadline: %v",
				ErrQuorum, len(replies), q, ctx.Err())
		}
	}
	return replies, fmt.Errorf("%w: %d/%d replies", ErrQuorum, len(replies), q)
}
