package model

import (
	"fmt"
	"math"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

// MLP is a one-hidden-layer perceptron with tanh activation and softmax
// cross-entropy output: the non-convex model used where the paper trains
// deep networks. Parameter layout: W1 (hidden x in) row-major, b1 (hidden),
// W2 (classes x hidden) row-major, b2 (classes).
type MLP struct {
	in, hidden, classes int
}

var _ Model = (*MLP)(nil)

// NewMLP returns an MLP classifier with the given layer sizes.
func NewMLP(in, hidden, classes int) (*MLP, error) {
	if in <= 0 || hidden <= 0 || classes < 2 {
		return nil, fmt.Errorf("%w: in=%d hidden=%d classes=%d", ErrBadInput, in, hidden, classes)
	}
	return &MLP{in: in, hidden: hidden, classes: classes}, nil
}

// Name implements Model.
func (m *MLP) Name() string { return "mlp" }

// Dim implements Model.
func (m *MLP) Dim() int {
	return m.hidden*m.in + m.hidden + m.classes*m.hidden + m.classes
}

// Hidden returns the hidden layer width.
func (m *MLP) Hidden() int { return m.hidden }

// InitParams implements Model with Xavier-style scaling.
func (m *MLP) InitParams(rng *tensor.RNG) tensor.Vector {
	p := tensor.New(m.Dim())
	s1 := math.Sqrt(2 / float64(m.in+m.hidden))
	s2 := math.Sqrt(2 / float64(m.hidden+m.classes))
	off := 0
	for i := 0; i < m.hidden*m.in; i++ {
		p[off+i] = s1 * rng.Norm()
	}
	off += m.hidden*m.in + m.hidden // biases stay zero
	for i := 0; i < m.classes*m.hidden; i++ {
		p[off+i] = s2 * rng.Norm()
	}
	return p
}

// layout returns the four parameter segments of p.
func (m *MLP) layout(p tensor.Vector) (w1, b1, w2, b2 tensor.Vector) {
	o := 0
	w1 = p[o : o+m.hidden*m.in]
	o += m.hidden * m.in
	b1 = p[o : o+m.hidden]
	o += m.hidden
	w2 = p[o : o+m.classes*m.hidden]
	o += m.classes * m.hidden
	b2 = p[o : o+m.classes]
	return
}

// forward computes hidden activations (tanh) and output probabilities.
func (m *MLP) forward(p tensor.Vector, x tensor.Vector, h, probs []float64) {
	w1, b1, w2, b2 := m.layout(p)
	for i := 0; i < m.hidden; i++ {
		row := w1[i*m.in : (i+1)*m.in]
		s := b1[i]
		for j, xv := range x {
			s += row[j] * xv
		}
		h[i] = math.Tanh(s)
	}
	for c := 0; c < m.classes; c++ {
		row := w2[c*m.hidden : (c+1)*m.hidden]
		s := b2[c]
		for i, hv := range h {
			s += row[i] * hv
		}
		probs[c] = s
	}
	softmaxInPlace(probs)
}

// Gradient implements Model (closed-form backprop through the single hidden
// layer).
func (m *MLP) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	if len(params) != m.Dim() {
		return nil, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return nil, err
	}
	if len(batch.Features) == 0 {
		return nil, data.ErrEmptyDataset
	}
	grad := tensor.New(m.Dim())
	gw1, gb1, gw2, gb2 := m.layout(grad)
	_, _, w2, _ := m.layout(params)

	h := make([]float64, m.hidden)
	probs := make([]float64, m.classes)
	dh := make([]float64, m.hidden)
	for i, x := range batch.Features {
		m.forward(params, x, h, probs)
		y := batch.Labels[i]
		// Output layer: dL/dlogit_c = p_c - [c == y].
		for c := 0; c < m.classes; c++ {
			delta := probs[c]
			if c == y {
				delta -= 1
			}
			row := gw2[c*m.hidden : (c+1)*m.hidden]
			for j, hv := range h {
				row[j] += delta * hv
			}
			gb2[c] += delta
		}
		// Hidden layer: dh_j = sum_c delta_c * w2[c][j], through tanh'.
		for j := range dh {
			var s float64
			for c := 0; c < m.classes; c++ {
				delta := probs[c]
				if c == y {
					delta -= 1
				}
				s += delta * w2[c*m.hidden+j]
			}
			dh[j] = s * (1 - h[j]*h[j])
		}
		for j := 0; j < m.hidden; j++ {
			row := gw1[j*m.in : (j+1)*m.in]
			for k, xv := range x {
				row[k] += dh[j] * xv
			}
			gb1[j] += dh[j]
		}
	}
	grad.ScaleInPlace(1 / float64(len(batch.Features)))
	return grad, nil
}

// Loss implements Model.
func (m *MLP) Loss(params tensor.Vector, batch data.Batch) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return 0, err
	}
	if len(batch.Features) == 0 {
		return 0, data.ErrEmptyDataset
	}
	h := make([]float64, m.hidden)
	probs := make([]float64, m.classes)
	var loss float64
	for i, x := range batch.Features {
		m.forward(params, x, h, probs)
		loss += -logClamped(probs[batch.Labels[i]])
	}
	return loss / float64(len(batch.Features)), nil
}

// Accuracy implements Model.
func (m *MLP) Accuracy(params tensor.Vector, ds *data.Dataset) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if ds.Len() == 0 {
		return 0, data.ErrEmptyDataset
	}
	h := make([]float64, m.hidden)
	probs := make([]float64, m.classes)
	correct := 0
	for i, x := range ds.Features {
		if len(x) != m.in {
			return 0, fmt.Errorf("%w: feature %d has %d, want %d", ErrBadInput, i, len(x), m.in)
		}
		m.forward(params, x, h, probs)
		if argmax(probs) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

// logClamped returns log(p) with p clamped away from zero so Byzantine-driven
// divergence produces large-but-finite losses instead of -Inf.
func logClamped(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	return math.Log(p)
}
