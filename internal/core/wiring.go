package core

import (
	"io"

	"garfield/internal/rpc"
	"garfield/internal/transport"
)

// Wiring abstracts how a cluster's nodes are connected: how a node's RPC
// handler is exposed at an address, how a server replica obtains the client
// it pulls through, and which clock the protocol runners measure on. The
// default live wiring serves real framed-RPC loops over the fault-injectable
// in-memory transport with one pooled persistent client per replica and the
// wall clock. The discrete-event simulator (internal/sim) provides a wiring
// that dispatches requests directly to handlers under a virtual clock — no
// goroutine per node, no serialization on the hot path — which is how one
// process holds thousands of simulated nodes.
type Wiring interface {
	// Serve exposes handler at addr and returns a closer that withdraws it.
	Serve(addr string, handler rpc.Handler) (io.Closer, error)
	// NewCaller returns the pull client used by the node at address self.
	// The caller must stamp self as the request origin when the request
	// carries none (as rpc.NewPooledClientAs does), so adversarial
	// handlers can equivocate deterministically per puller.
	NewCaller(self string) rpc.Caller
	// Clock is the time source runners on this wiring measure with.
	Clock() Clock
}

// liveWiring is the default Wiring: real RPC serving loops over the
// fault-injectable transport, pooled persistent connections (Section 4.1's
// channel reuse), wall time.
type liveWiring struct {
	net *transport.Faulty
}

func (lw liveWiring) Serve(addr string, handler rpc.Handler) (io.Closer, error) {
	return rpc.Serve(lw.net, addr, handler)
}

func (lw liveWiring) NewCaller(self string) rpc.Caller {
	return rpc.NewPooledClientAs(lw.net.Bind(self), self)
}

func (lw liveWiring) Clock() Clock { return WallClock() }

// closeCaller closes a caller when its wiring gave it resources to release
// (pooled connections); simulator callers hold none and are left alone. Both
// Close signatures count: rpc.PooledClient.Close returns nothing, so an
// io.Closer check alone would never release the live wiring's connections.
func closeCaller(cl rpc.Caller) {
	switch closer := cl.(type) {
	case io.Closer:
		_ = closer.Close()
	case interface{ Close() }:
		closer.Close()
	}
}
