// Package model provides the trainable models Garfield experiments use and
// the paper's Table-1 catalogue of model profiles.
//
// The paper delegates model definition to TensorFlow/PyTorch; here a Model is
// any analytically-differentiated function over a single flat parameter
// vector. That flat-vector contract is precisely the abstraction level
// Garfield's aggregation and networking layers operate at, so swapping the
// autograd engine for closed-form gradients preserves every code path the
// paper exercises. Convergence experiments use the trainable models; the
// throughput experiments, which depend only on the parameter dimension d,
// use the Table-1 profiles as opaque vectors.
package model

import (
	"errors"
	"fmt"
	"math"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

// Model is a differentiable classifier over a flat parameter vector. Models
// are stateless: parameters are owned by the caller (the Server object in
// Garfield's design) and passed to every method, so server replicas can hold
// divergent copies of the same architecture.
type Model interface {
	// Name identifies the architecture.
	Name() string
	// Dim returns the length of the flat parameter vector.
	Dim() int
	// InitParams returns a fresh, deterministically-initialized parameter
	// vector.
	InitParams(rng *tensor.RNG) tensor.Vector
	// Gradient computes the average cross-entropy gradient of the batch at
	// params.
	Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error)
	// Loss computes the average cross-entropy loss of the batch at params.
	Loss(params tensor.Vector, batch data.Batch) (float64, error)
	// Accuracy computes top-1 accuracy over the dataset at params — the
	// paper's accuracy metric.
	Accuracy(params tensor.Vector, ds *data.Dataset) (float64, error)
}

var (
	// ErrBadParams is returned when a parameter vector has the wrong
	// dimension for the model.
	ErrBadParams = errors.New("model: parameter dimension mismatch")

	// ErrBadInput is returned when a batch or dataset does not match the
	// model's input shape.
	ErrBadInput = errors.New("model: input dimension mismatch")
)

// softmaxInPlace converts logits to probabilities, numerically stabilized.
func softmaxInPlace(logits []float64) {
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		logits[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range logits {
		logits[i] *= inv
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// checkBatch rejects a batch whose features do not have in coordinates or
// whose labels are not one per sample in [0, classes).
func checkBatch(in, classes int, b data.Batch) error {
	if len(b.Labels) != len(b.Features) {
		return fmt.Errorf("%w: %d labels for %d samples", ErrBadInput, len(b.Labels), len(b.Features))
	}
	for i, f := range b.Features {
		if len(f) != in {
			return fmt.Errorf("%w: model expects %d features, got %d", ErrBadInput, in, len(f))
		}
		if y := b.Labels[i]; y < 0 || y >= classes {
			return fmt.Errorf("%w: label %d outside [0, %d)", ErrBadInput, y, classes)
		}
	}
	return nil
}
