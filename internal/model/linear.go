package model

import (
	"fmt"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

// LinearSoftmax is multinomial logistic regression: logits = W x + b with
// cross-entropy loss. Parameter layout: W row-major (classes x in) followed
// by b (classes).
type LinearSoftmax struct {
	in, classes int
}

var _ Model = (*LinearSoftmax)(nil)

// NewLinearSoftmax returns a linear softmax classifier for the given input
// dimension and class count.
func NewLinearSoftmax(in, classes int) (*LinearSoftmax, error) {
	if in <= 0 || classes < 2 {
		return nil, fmt.Errorf("%w: in=%d classes=%d", ErrBadInput, in, classes)
	}
	return &LinearSoftmax{in: in, classes: classes}, nil
}

// Name implements Model.
func (m *LinearSoftmax) Name() string { return "linear-softmax" }

// Dim implements Model.
func (m *LinearSoftmax) Dim() int { return m.classes*m.in + m.classes }

// InitParams implements Model. Weights start at small Gaussian values and
// biases at zero.
func (m *LinearSoftmax) InitParams(rng *tensor.RNG) tensor.Vector {
	p := rng.NormalVector(m.Dim(), 0, 0.01)
	for i := m.classes * m.in; i < len(p); i++ {
		p[i] = 0
	}
	return p
}

// logits computes W x + b into out (len classes).
//
// The loop is register-blocked over four class rows, so each x[j] load
// feeds four independent sums. Every sum still starts at 0, adds its terms
// in j order and adds the bias last: the result is bit-identical to one
// serial dot product per class.
func (m *LinearSoftmax) logits(params tensor.Vector, x tensor.Vector, out []float64) {
	in, classes := m.in, m.classes
	x = x[:in]
	bias := params[classes*in : classes*in+classes]
	out = out[:classes]
	c := 0
	for ; c+4 <= classes; c += 4 {
		r0 := params[c*in:][:len(x)]
		r1 := params[(c+1)*in:][:len(x)]
		r2 := params[(c+2)*in:][:len(x)]
		r3 := params[(c+3)*in:][:len(x)]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		out[c] = s0 + bias[c]
		out[c+1] = s1 + bias[c+1]
		out[c+2] = s2 + bias[c+2]
		out[c+3] = s3 + bias[c+3]
	}
	for ; c < classes; c++ {
		row := params[c*in:][:len(x)]
		var s float64
		for j, xv := range x {
			s += row[j] * xv
		}
		out[c] = s + bias[c]
	}
}

// Gradient implements Model.
//
// It first computes each sample's output deltas (softmax probabilities
// minus the one-hot label) into one batch x classes slice. It then finishes
// one gradient row at a time while the row sits in L1, folding in four
// samples per pass. Each coordinate still receives its terms one by one in
// batch order, exactly as a sample-major loop adds them, so the result is
// bit-identical to it.
func (m *LinearSoftmax) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	if len(params) != m.Dim() {
		return nil, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return nil, err
	}
	if len(batch.Features) == 0 {
		return nil, data.ErrEmptyDataset
	}
	in, classes := m.in, m.classes
	xs := batch.Features
	n := len(xs)
	grad := tensor.New(m.Dim())
	deltas := make([]float64, n*classes)
	for i, x := range xs {
		d := deltas[i*classes : (i+1)*classes]
		m.logits(params, x, d)
		softmaxInPlace(d)
		d[batch.Labels[i]] -= 1
	}
	gb := grad[classes*in : classes*in+classes]
	for c := 0; c < classes; c++ {
		row := grad[c*in : (c+1)*in]
		i := 0
		for ; i+4 <= n; i += 4 {
			d0, d1 := deltas[i*classes+c], deltas[(i+1)*classes+c]
			d2, d3 := deltas[(i+2)*classes+c], deltas[(i+3)*classes+c]
			x0, x1 := xs[i][:len(row)], xs[i+1][:len(row)]
			x2, x3 := xs[i+2][:len(row)], xs[i+3][:len(row)]
			for j := range row {
				r := row[j]
				r += d0 * x0[j]
				r += d1 * x1[j]
				r += d2 * x2[j]
				r += d3 * x3[j]
				row[j] = r
			}
		}
		for ; i < n; i++ {
			d, x := deltas[i*classes+c], xs[i][:len(row)]
			for j := range row {
				row[j] += d * x[j]
			}
		}
		for i := 0; i < n; i++ {
			gb[c] += deltas[i*classes+c]
		}
	}
	grad.ScaleInPlace(1 / float64(n))
	return grad, nil
}

// Loss implements Model.
func (m *LinearSoftmax) Loss(params tensor.Vector, batch data.Batch) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return 0, err
	}
	if len(batch.Features) == 0 {
		return 0, data.ErrEmptyDataset
	}
	probs := make([]float64, m.classes)
	var loss float64
	for i, x := range batch.Features {
		m.logits(params, x, probs)
		softmaxInPlace(probs)
		loss += -logClamped(probs[batch.Labels[i]])
	}
	return loss / float64(len(batch.Features)), nil
}

// Accuracy implements Model.
func (m *LinearSoftmax) Accuracy(params tensor.Vector, ds *data.Dataset) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if ds.Len() == 0 {
		return 0, data.ErrEmptyDataset
	}
	probs := make([]float64, m.classes)
	correct := 0
	for i, x := range ds.Features {
		if len(x) != m.in {
			return 0, fmt.Errorf("%w: feature %d has %d, want %d", ErrBadInput, i, len(x), m.in)
		}
		m.logits(params, x, probs)
		if argmax(probs) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}
