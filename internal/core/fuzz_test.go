package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/sgd"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// fuzzServer builds a minimal server (4-parameter linear model) for
// checkpoint decoding; it never trains.
func fuzzServer(tb testing.TB) *Server {
	arch, err := model.NewLinearSoftmax(1, 2)
	if err != nil {
		tb.Fatal(err)
	}
	opt, err := sgd.New(sgd.Constant(0.1))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewServer(ServerConfig{
		Arch:      arch,
		Init:      tensor.New(arch.Dim()),
		Optimizer: opt,
		Client:    rpc.NewPooledClient(transport.NewMem()),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// validCheckpoint returns the canonical v2 bytes of a fresh fuzz server.
func validCheckpoint(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := fuzzServer(tb).SaveCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpointDecode fuzzes the v2 checksum-trailer checkpoint format: a
// checkpoint file is attacker-controllable state (it sits on disk between
// crash and recovery), so LoadCheckpoint must never panic, must reject every
// mutation of a valid checkpoint (the checksum trailer covers all bytes),
// and must leave the server untouched on rejection.
func FuzzCheckpointDecode(f *testing.F) {
	valid := validCheckpoint(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // truncated trailer
	f.Add(valid[:12])           // header only
	mutated := append([]byte(nil), valid...)
	mutated[14] ^= 0xff // payload flip under an intact header
	f.Add(mutated)
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad)) // trailing junk

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzServer(t)
		before := s.Params()
		err := s.LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("non-checkpoint error class: %v", err)
			}
			if !s.Params().Equal(before) {
				t.Fatal("rejected checkpoint mutated server state")
			}
			return
		}
		// Anything accepted must survive a save/load round trip to the
		// same state and step.
		var buf bytes.Buffer
		if err := s.SaveCheckpoint(&buf); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		s2 := fuzzServer(t)
		if err := s2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-load: %v", err)
		}
		if !s2.Params().Equal(s.Params()) || s2.Step() != s.Step() {
			t.Fatal("accepted checkpoint does not round trip")
		}
	})
}

// TestCheckpointRejectsEveryByteFlip locks the trailer's coverage
// exhaustively at unit-test scale: flipping any single byte of a valid
// checkpoint must fail the load. (The fuzzer explores beyond this; the table
// keeps the guarantee even in -short CI runs.)
func TestCheckpointRejectsEveryByteFlip(t *testing.T) {
	valid := validCheckpoint(t)
	for i := range valid {
		mutated := append([]byte(nil), valid...)
		mutated[i] ^= 0x20
		s := fuzzServer(t)
		if err := s.LoadCheckpoint(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flip at byte %d of %d accepted", i, len(valid))
		}
	}
	// And the unmutated checkpoint still loads.
	if err := fuzzServer(t).LoadCheckpoint(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRejectsTruncationToEveryLength guards the partial-write
// case the v2 trailer exists for.
func TestCheckpointRejectsTruncationToEveryLength(t *testing.T) {
	valid := validCheckpoint(t)
	for n := 0; n < len(valid); n++ {
		s := fuzzServer(t)
		if err := s.LoadCheckpoint(io.LimitReader(bytes.NewReader(valid), int64(n))); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(valid))
		}
	}
}
