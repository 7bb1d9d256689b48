package model

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

func smallDataset(t *testing.T) (*data.Dataset, *data.Dataset) {
	t.Helper()
	train, test, err := data.Generate(data.SyntheticSpec{
		Name: "t", Dim: 10, Classes: 3, Train: 300, Test: 100,
		Separation: 2, Noise: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func fullBatch(d *data.Dataset) data.Batch {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Batch(idx)
}

// numericGradientCheck compares the analytic gradient against central finite
// differences on a few random coordinates.
func numericGradientCheck(t *testing.T, m Model, params tensor.Vector, b data.Batch) {
	t.Helper()
	grad, err := m.Gradient(params, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(99)
	const h = 1e-6
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(len(params))
		orig := params[i]
		params[i] = orig + h
		lp, err := m.Loss(params, b)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig - h
		lm, err := m.Loss(params, b)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("gradient check failed at %d: analytic %v, numeric %v", i, grad[i], numeric)
		}
	}
}

func TestLinearSoftmaxDim(t *testing.T) {
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 33 {
		t.Fatalf("Dim = %d, want 33", m.Dim())
	}
}

func TestLinearGradientCheck(t *testing.T) {
	train, _ := smallDataset(t)
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(1))
	b := train.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	numericGradientCheck(t, m, params, b)
}

func TestMLPGradientCheck(t *testing.T) {
	train, _ := smallDataset(t)
	m, err := NewMLP(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(2))
	b := train.Batch([]int{0, 1, 2, 3})
	numericGradientCheck(t, m, params, b)
}

func TestMLPDim(t *testing.T) {
	m, err := NewMLP(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 8*10 + 8 + 3*8 + 3
	if m.Dim() != want {
		t.Fatalf("Dim = %d, want %d", m.Dim(), want)
	}
	if m.Hidden() != 8 {
		t.Fatalf("Hidden = %d", m.Hidden())
	}
}

func TestLinearLearnsSyntheticTask(t *testing.T) {
	train, test := smallDataset(t)
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(3))
	before, err := m.Accuracy(params, test)
	if err != nil {
		t.Fatal(err)
	}
	b := fullBatch(train)
	for step := 0; step < 150; step++ {
		g, err := m.Gradient(params, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.AXPY(-0.5, g); err != nil {
			t.Fatal(err)
		}
	}
	after, err := m.Accuracy(params, test)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.85 {
		t.Fatalf("accuracy after training = %v (before %v), want >= 0.85", after, before)
	}
	if after <= before {
		t.Fatalf("training did not improve accuracy: %v -> %v", before, after)
	}
}

func TestMLPLearnsSyntheticTask(t *testing.T) {
	train, test := smallDataset(t)
	m, err := NewMLP(10, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(4))
	b := fullBatch(train)
	for step := 0; step < 200; step++ {
		g, err := m.Gradient(params, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.AXPY(-0.5, g); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := m.Accuracy(params, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("MLP accuracy = %v, want >= 0.85", acc)
	}
}

func TestLossDecreasesUnderGD(t *testing.T) {
	train, _ := smallDataset(t)
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(5))
	b := fullBatch(train)
	l0, err := m.Loss(params, b)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		g, err := m.Gradient(params, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.AXPY(-0.2, g); err != nil {
			t.Fatal(err)
		}
	}
	l1, err := m.Loss(params, b)
	if err != nil {
		t.Fatal(err)
	}
	if l1 >= l0 {
		t.Fatalf("loss did not decrease: %v -> %v", l0, l1)
	}
}

func TestParamDimValidation(t *testing.T) {
	train, _ := smallDataset(t)
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(m.Dim() + 1)
	b := train.Batch([]int{0})
	if _, err := m.Gradient(bad, b); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Gradient err = %v", err)
	}
	if _, err := m.Loss(bad, b); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Loss err = %v", err)
	}
	if _, err := m.Accuracy(bad, train); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Accuracy err = %v", err)
	}
	mm, err := NewMLP(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	badM := tensor.New(mm.Dim() - 1)
	if _, err := mm.Gradient(badM, b); !errors.Is(err, ErrBadParams) {
		t.Fatalf("MLP Gradient err = %v", err)
	}
}

func TestInputDimValidation(t *testing.T) {
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(1))
	badBatch := data.Batch{Features: []tensor.Vector{tensor.New(7)}, Labels: []int{0}}
	if _, err := m.Gradient(params, badBatch); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

// TestLabelRangeValidation: a label outside [0, classes), or a missing one,
// is rejected with ErrBadInput by Gradient and Loss of every model, instead
// of being silently dropped or panicking.
func TestLabelRangeValidation(t *testing.T) {
	linear, err := NewLinearSoftmax(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewMLP(6, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cnn, err := NewCNN(4, 4, 1, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name  string
		m     Model
		in    int
		label int
	}{
		{"linear label=classes", linear, 6, 3},
		{"linear label=-1", linear, 6, -1},
		{"mlp label=classes", mlp, 6, 3},
		{"mlp label=-1", mlp, 6, -1},
		{"cnn label=classes", cnn, cnn.InputDim(), 3},
		{"cnn label=-1", cnn, cnn.InputDim(), -1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			params := tc.m.InitParams(tensor.NewRNG(1))
			batch := data.Batch{
				Features: []tensor.Vector{tensor.New(tc.in), tensor.New(tc.in)},
				Labels:   []int{0, tc.label},
			}
			if _, err := tc.m.Gradient(params, batch); !errors.Is(err, ErrBadInput) {
				t.Fatalf("Gradient err = %v, want ErrBadInput", err)
			}
			if _, err := tc.m.Loss(params, batch); !errors.Is(err, ErrBadInput) {
				t.Fatalf("Loss err = %v, want ErrBadInput", err)
			}
		})
	}
	short := data.Batch{Features: []tensor.Vector{tensor.New(6), tensor.New(6)}, Labels: []int{0}}
	if _, err := linear.Gradient(linear.InitParams(tensor.NewRNG(1)), short); !errors.Is(err, ErrBadInput) {
		t.Fatalf("missing label: err = %v, want ErrBadInput", err)
	}
}

func TestEmptyBatch(t *testing.T) {
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(1))
	if _, err := m.Gradient(params, data.Batch{}); !errors.Is(err, data.ErrEmptyDataset) {
		t.Fatalf("err = %v, want ErrEmptyDataset", err)
	}
	if _, err := m.Accuracy(params, &data.Dataset{}); !errors.Is(err, data.ErrEmptyDataset) {
		t.Fatalf("err = %v, want ErrEmptyDataset", err)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewLinearSoftmax(0, 3); err == nil {
		t.Fatal("expected error for in=0")
	}
	if _, err := NewLinearSoftmax(5, 1); err == nil {
		t.Fatal("expected error for classes=1")
	}
	if _, err := NewMLP(5, 0, 3); err == nil {
		t.Fatal("expected error for hidden=0")
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := []float64{1000, 1001, 999}
	softmaxInPlace(logits)
	var sum float64
	for _, p := range logits {
		if math.IsNaN(p) || p < 0 {
			t.Fatalf("softmax produced invalid probability: %v", logits)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestTable1Profiles(t *testing.T) {
	profiles := Table1()
	if len(profiles) != 6 {
		t.Fatalf("Table1 has %d entries, want 6", len(profiles))
	}
	wantParams := map[string]int{
		"MNIST_CNN":  79510,
		"CifarNet":   1756426,
		"Inception":  5602874,
		"ResNet-50":  23539850,
		"ResNet-200": 62697610,
		"VGG":        128807306,
	}
	wantMB := map[string]float64{
		"MNIST_CNN":  0.3,
		"CifarNet":   6.7,
		"Inception":  21.4, // paper's value is derived from 22.4 MB raw /1e6; allow rounding below
		"ResNet-50":  89.8,
		"ResNet-200": 239.2,
		"VGG":        491.4,
	}
	for _, p := range profiles {
		if p.Params != wantParams[p.Name] {
			t.Fatalf("%s params = %d, want %d", p.Name, p.Params, wantParams[p.Name])
		}
		// Sizes in the paper are params * 4 bytes; check within 10%.
		if math.Abs(p.SizeMB()-wantMB[p.Name])/wantMB[p.Name] > 0.10 {
			t.Fatalf("%s size = %.1f MB, paper says %.1f", p.Name, p.SizeMB(), wantMB[p.Name])
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("resnet-50")
	if err != nil {
		t.Fatal(err)
	}
	if p.Params != 23539850 {
		t.Fatalf("params = %d", p.Params)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestInitParamsDeterministic(t *testing.T) {
	m, err := NewMLP(6, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := m.InitParams(tensor.NewRNG(8))
	b := m.InitParams(tensor.NewRNG(8))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitParams not deterministic")
		}
	}
}

// The reference LinearSoftmax kernels: the straightforward sample-major
// loops the register-blocked kernels must match bit for bit.

func refLinearLogits(m *LinearSoftmax, params tensor.Vector, x tensor.Vector, out []float64) {
	for c := 0; c < m.classes; c++ {
		row := params[c*m.in : (c+1)*m.in]
		var s float64
		for j, xv := range x {
			s += row[j] * xv
		}
		out[c] = s + params[m.classes*m.in+c]
	}
}

func refLinearGradient(m *LinearSoftmax, params tensor.Vector, batch data.Batch) tensor.Vector {
	grad := tensor.New(m.Dim())
	probs := make([]float64, m.classes)
	for i, x := range batch.Features {
		refLinearLogits(m, params, x, probs)
		softmaxInPlace(probs)
		y := batch.Labels[i]
		for c := 0; c < m.classes; c++ {
			delta := probs[c]
			if c == y {
				delta -= 1
			}
			row := grad[c*m.in : (c+1)*m.in]
			for j, xv := range x {
				row[j] += delta * xv
			}
			grad[m.classes*m.in+c] += delta
		}
	}
	grad.ScaleInPlace(1 / float64(len(batch.Features)))
	return grad
}

func refLinearLoss(m *LinearSoftmax, params tensor.Vector, batch data.Batch) float64 {
	probs := make([]float64, m.classes)
	var loss float64
	for i, x := range batch.Features {
		refLinearLogits(m, params, x, probs)
		softmaxInPlace(probs)
		loss += -logClamped(probs[batch.Labels[i]])
	}
	return loss / float64(len(batch.Features))
}

func refLinearAccuracy(m *LinearSoftmax, params tensor.Vector, ds *data.Dataset) float64 {
	probs := make([]float64, m.classes)
	correct := 0
	for i, x := range ds.Features {
		refLinearLogits(m, params, x, probs)
		if argmax(probs) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// sameBits reports whether a and b are the same float64 bit pattern, or
// both NaN (NaN payloads may differ between equivalent operation orders).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestLinearSoftmaxMatchesReferenceBits: the register-blocked logits and
// Gradient perform the same IEEE operations in the same order as the
// reference loops, so Gradient, Loss and Accuracy agree bit for bit. The
// shapes cover every remainder path (class counts and batch sizes not
// divisible by the block of 4, batch 1) and the d = 100,100 workload shape;
// the poisoned case seeds the parameters with ±Inf and NaN, the shape of a
// Byzantine-driven divergence.
func TestLinearSoftmaxMatchesReferenceBits(t *testing.T) {
	tests := []struct {
		in, classes, batch int
		poison             bool
	}{
		{1000, 100, 1, false},
		{1000, 100, 4, false},
		{1000, 100, 32, false},
		{1000, 100, 33, false},
		{7, 3, 5, false},
		{13, 5, 9, false},
		{5, 2, 1, false},
		{3, 6, 7, false},
		{9, 11, 4, false},
		{13, 5, 9, true},
		{1000, 100, 33, true},
	}
	for _, tc := range tests {
		name := fmt.Sprintf("in%d_c%d_b%d", tc.in, tc.classes, tc.batch)
		if tc.poison {
			name += "_poisoned"
		}
		t.Run(name, func(t *testing.T) {
			m, err := NewLinearSoftmax(tc.in, tc.classes)
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(uint64(tc.in*1000 + tc.classes*10 + tc.batch))
			params := rng.NormalVector(m.Dim(), 0, 0.5)
			if tc.poison {
				params[0] = math.Inf(1)
				params[tc.in+1] = math.Inf(-1)
				params[m.Dim()-1] = math.NaN()
			}
			ds := &data.Dataset{}
			for i := 0; i < tc.batch; i++ {
				ds.Features = append(ds.Features, rng.NormalVector(tc.in, 0, 1))
				ds.Labels = append(ds.Labels, rng.Intn(tc.classes))
			}
			batch := data.Batch{Features: ds.Features, Labels: ds.Labels}

			grad, err := m.Gradient(params, batch)
			if err != nil {
				t.Fatal(err)
			}
			want := refLinearGradient(m, params, batch)
			for i := range want {
				if !sameBits(grad[i], want[i]) {
					t.Fatalf("gradient[%d] = %v (%#x), reference %v (%#x)",
						i, grad[i], math.Float64bits(grad[i]), want[i], math.Float64bits(want[i]))
				}
			}
			loss, err := m.Loss(params, batch)
			if err != nil {
				t.Fatal(err)
			}
			if wantLoss := refLinearLoss(m, params, batch); !sameBits(loss, wantLoss) {
				t.Fatalf("loss = %v, reference %v", loss, wantLoss)
			}
			acc, err := m.Accuracy(params, ds)
			if err != nil {
				t.Fatal(err)
			}
			if wantAcc := refLinearAccuracy(m, params, ds); !sameBits(acc, wantAcc) {
				t.Fatalf("accuracy = %v, reference %v", acc, wantAcc)
			}
		})
	}
}
