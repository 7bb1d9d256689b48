package model

import (
	"fmt"
	"math"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

// CNN is a small convolutional network — one valid-padding convolution with
// ReLU, one 2x2 max-pool, and a dense softmax output — the architecture
// family of the paper's MNIST_CNN. Gradients are computed with hand-written
// backpropagation, keeping the flat-parameter-vector contract of Model.
//
// Parameter layout (row-major throughout):
//
//	convW  [filters][channels][k][k]
//	convB  [filters]
//	denseW [classes][filters * pooledH * pooledW]
//	denseB [classes]
type CNN struct {
	h, w, c  int // input height, width, channels
	k        int // square kernel size
	filters  int
	classes  int
	convH    int // h - k + 1
	convW_   int // w - k + 1
	pooledH  int
	pooledW  int
	flatSize int
}

var _ Model = (*CNN)(nil)

// NewCNN returns a convolutional classifier over h x w x c inputs with a
// single k x k convolution layer of the given filter count.
func NewCNN(h, w, c, k, filters, classes int) (*CNN, error) {
	if h <= 0 || w <= 0 || c <= 0 || k <= 0 || filters <= 0 || classes < 2 {
		return nil, fmt.Errorf("%w: cnn h=%d w=%d c=%d k=%d filters=%d classes=%d",
			ErrBadInput, h, w, c, k, filters, classes)
	}
	convH, convW := h-k+1, w-k+1
	if convH < 2 || convW < 2 {
		return nil, fmt.Errorf("%w: kernel %d too large for %dx%d input", ErrBadInput, k, h, w)
	}
	m := &CNN{
		h: h, w: w, c: c, k: k, filters: filters, classes: classes,
		convH: convH, convW_: convW,
		pooledH: convH / 2, pooledW: convW / 2,
	}
	m.flatSize = filters * m.pooledH * m.pooledW
	return m, nil
}

// NewMNISTCNN returns the stand-in for the paper's MNIST_CNN profile: a
// 28x28x1 input, 5x5 convolution with 8 filters, 2x2 pooling and a dense
// softmax over 10 classes.
func NewMNISTCNN() (*CNN, error) {
	return NewCNN(28, 28, 1, 5, 8, 10)
}

// Name implements Model.
func (m *CNN) Name() string { return "cnn" }

// Dim implements Model.
func (m *CNN) Dim() int {
	return m.filters*m.c*m.k*m.k + m.filters + m.classes*m.flatSize + m.classes
}

// InputDim returns the expected flattened input length (h*w*c).
func (m *CNN) InputDim() int { return m.h * m.w * m.c }

// InitParams implements Model with He-style scaling for the convolution and
// Xavier for the dense layer.
func (m *CNN) InitParams(rng *tensor.RNG) tensor.Vector {
	p := tensor.New(m.Dim())
	convN := m.filters * m.c * m.k * m.k
	sConv := math.Sqrt(2 / float64(m.c*m.k*m.k))
	for i := 0; i < convN; i++ {
		p[i] = sConv * rng.Norm()
	}
	off := convN + m.filters
	sDense := math.Sqrt(2 / float64(m.flatSize+m.classes))
	for i := 0; i < m.classes*m.flatSize; i++ {
		p[off+i] = sDense * rng.Norm()
	}
	return p
}

// layout returns the four parameter segments of p.
func (m *CNN) layout(p tensor.Vector) (convW, convB, denseW, denseB tensor.Vector) {
	o := 0
	convW = p[o : o+m.filters*m.c*m.k*m.k]
	o += m.filters * m.c * m.k * m.k
	convB = p[o : o+m.filters]
	o += m.filters
	denseW = p[o : o+m.classes*m.flatSize]
	o += m.classes * m.flatSize
	denseB = p[o : o+m.classes]
	return
}

// scratch holds per-example forward activations reused across the batch.
type cnnScratch struct {
	conv   []float64 // post-ReLU feature maps [filters][convH][convW]
	pooled []float64 // pooled activations    [filters][pooledH][pooledW]
	argmax []int     // winning conv index per pooled cell
	probs  []float64 // softmax output
}

func (m *CNN) newScratch() *cnnScratch {
	return &cnnScratch{
		conv:   make([]float64, m.filters*m.convH*m.convW_),
		pooled: make([]float64, m.flatSize),
		argmax: make([]int, m.flatSize),
		probs:  make([]float64, m.classes),
	}
}

// forward fills sc with the activations for x at params.
func (m *CNN) forward(params tensor.Vector, x tensor.Vector, sc *cnnScratch) {
	convW, convB, denseW, denseB := m.layout(params)
	// Convolution + ReLU.
	for f := 0; f < m.filters; f++ {
		for oy := 0; oy < m.convH; oy++ {
			for ox := 0; ox < m.convW_; ox++ {
				s := convB[f]
				for ch := 0; ch < m.c; ch++ {
					wBase := ((f*m.c + ch) * m.k) * m.k
					for ky := 0; ky < m.k; ky++ {
						inRow := ((oy+ky)*m.w + ox) * m.c
						for kx := 0; kx < m.k; kx++ {
							s += convW[wBase+ky*m.k+kx] * x[inRow+kx*m.c+ch]
						}
					}
				}
				if s < 0 {
					s = 0 // ReLU
				}
				sc.conv[(f*m.convH+oy)*m.convW_+ox] = s
			}
		}
	}
	// 2x2 max pool (stride 2).
	for f := 0; f < m.filters; f++ {
		for py := 0; py < m.pooledH; py++ {
			for px := 0; px < m.pooledW; px++ {
				best := math.Inf(-1)
				bestIdx := 0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := (f*m.convH+2*py+dy)*m.convW_ + 2*px + dx
						if v := sc.conv[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				pi := (f*m.pooledH+py)*m.pooledW + px
				sc.pooled[pi] = best
				sc.argmax[pi] = bestIdx
			}
		}
	}
	// Dense softmax.
	for cl := 0; cl < m.classes; cl++ {
		s := denseB[cl]
		row := denseW[cl*m.flatSize : (cl+1)*m.flatSize]
		for i, v := range sc.pooled {
			s += row[i] * v
		}
		sc.probs[cl] = s
	}
	softmaxInPlace(sc.probs)
}

// Gradient implements Model.
func (m *CNN) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	if len(params) != m.Dim() {
		return nil, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.InputDim(), m.classes, batch); err != nil {
		return nil, err
	}
	if len(batch.Features) == 0 {
		return nil, data.ErrEmptyDataset
	}
	grad := tensor.New(m.Dim())
	gConvW, gConvB, gDenseW, gDenseB := m.layout(grad)
	_, _, denseW, _ := m.layout(params)

	sc := m.newScratch()
	dPooled := make([]float64, m.flatSize)
	for bi, x := range batch.Features {
		m.forward(params, x, sc)
		y := batch.Labels[bi]
		// Output layer deltas.
		for cl := 0; cl < m.classes; cl++ {
			delta := sc.probs[cl]
			if cl == y {
				delta -= 1
			}
			row := gDenseW[cl*m.flatSize : (cl+1)*m.flatSize]
			for i, v := range sc.pooled {
				row[i] += delta * v
			}
			gDenseB[cl] += delta
		}
		// Back through the dense layer into the pooled activations.
		for i := range dPooled {
			var s float64
			for cl := 0; cl < m.classes; cl++ {
				delta := sc.probs[cl]
				if cl == y {
					delta -= 1
				}
				s += delta * denseW[cl*m.flatSize+i]
			}
			dPooled[i] = s
		}
		// Unpool to the winning conv cell; ReLU gate; accumulate conv
		// weight gradients by correlating the delta with the input.
		for pi, d := range dPooled {
			convIdx := sc.argmax[pi]
			if sc.conv[convIdx] <= 0 {
				continue // ReLU killed this path (or the winner was 0)
			}
			f := convIdx / (m.convH * m.convW_)
			rem := convIdx % (m.convH * m.convW_)
			oy := rem / m.convW_
			ox := rem % m.convW_
			gConvB[f] += d
			for ch := 0; ch < m.c; ch++ {
				wBase := ((f*m.c + ch) * m.k) * m.k
				for ky := 0; ky < m.k; ky++ {
					inRow := ((oy+ky)*m.w + ox) * m.c
					for kx := 0; kx < m.k; kx++ {
						gConvW[wBase+ky*m.k+kx] += d * x[inRow+kx*m.c+ch]
					}
				}
			}
		}
	}
	grad.ScaleInPlace(1 / float64(len(batch.Features)))
	return grad, nil
}

// Loss implements Model.
func (m *CNN) Loss(params tensor.Vector, batch data.Batch) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.InputDim(), m.classes, batch); err != nil {
		return 0, err
	}
	if len(batch.Features) == 0 {
		return 0, data.ErrEmptyDataset
	}
	sc := m.newScratch()
	var loss float64
	for i, x := range batch.Features {
		m.forward(params, x, sc)
		loss += -logClamped(sc.probs[batch.Labels[i]])
	}
	return loss / float64(len(batch.Features)), nil
}

// Accuracy implements Model.
func (m *CNN) Accuracy(params tensor.Vector, ds *data.Dataset) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if ds.Len() == 0 {
		return 0, data.ErrEmptyDataset
	}
	sc := m.newScratch()
	correct := 0
	for i, x := range ds.Features {
		if len(x) != m.InputDim() {
			return 0, fmt.Errorf("%w: feature %d has %d, want %d", ErrBadInput, i, len(x), m.InputDim())
		}
		m.forward(params, x, sc)
		if argmax(sc.probs) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}
