// Package tensor implements dense float32 tensors and the numeric
// kernels (convolution, pooling, matrix multiply, norms) that the rest
// of the repository builds on.
//
// Convention: 4-D tensors are laid out NCHW (batch, channel, height,
// width); convolution weights are laid out KCRS (output channel, input
// channel, kernel rows, kernel cols). Data is stored row-major in a
// single contiguous slice.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 tensor of arbitrary rank.
type Tensor struct {
	shape   []int
	strides []int
	Data    []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics on negative dimensions.
func New(shape ...int) *Tensor {
	// The panic formats only the offending value, not `shape` itself:
	// referencing the slice would mark the parameter as escaping and
	// heap-allocate the variadic argument at every New call site (and,
	// transitively, every Arena.Get call site on the alloc path).
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in New", d))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		Data:  make([]float32, n),
	}
	t.computeStrides()
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	t := &Tensor{shape: append([]int(nil), shape...), Data: data}
	t.computeStrides()
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

func (t *Tensor) computeStrides() {
	t.strides = make([]int, len(t.shape))
	s := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.strides[i] = s
		s *= t.shape[i]
	}
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// offset converts a multi-index into a flat offset, with bounds checks.
// Like New, the panics format only scalars: referencing idx itself
// would make the variadic argument escape and heap-allocate it at
// every At/Set call.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of bounds for dimension %d of size %d", v, i, t.shape[i]))
		}
		off += v * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx...)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx...)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape covering the same data.
// The element count must be unchanged. The returned tensor shares Data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	r := &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
	r.computeStrides()
	return r
}

// reshapeInPlace re-points t's own metadata at shape, reusing the
// header and the shape/stride slice capacity. Unlike Reshape it does
// NOT return a fresh view, so it is only safe when the caller owns t
// exclusively — the arena's buffer-recycling path (see Arena.Get).
//
//rtoss:noalloc
func (t *Tensor) reshapeInPlace(shape []int) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		// shape deliberately not formatted: see Arena.Get.
		panic(fmt.Sprintf("tensor: cannot reshape %d elems to %d elems in place", len(t.Data), n)) //rtoss:allow noalloc (panic path; never fires on the arena reuse path)
	}
	if cap(t.shape) < len(shape) || cap(t.strides) < len(shape) {
		t.shape = make([]int, len(shape))   //rtoss:allow noalloc (amortized rank grow)
		t.strides = make([]int, len(shape)) //rtoss:allow noalloc (amortized rank grow)
	}
	t.shape = t.shape[:len(shape)]
	copy(t.shape, shape)
	t.strides = t.strides[:len(shape)]
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		t.strides[i] = s
		s *= shape[i]
	}
}

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a compact shape/stat summary.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v nnz=%d/%d L2=%.4f", t.shape, t.NNZ(), t.Len(), t.L2())
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// NNZ returns the number of non-zero elements.
func (t *Tensor) NNZ() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero elements in [0, 1].
// An empty tensor has sparsity 0.
func (t *Tensor) Sparsity() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return 1 - float64(t.NNZ())/float64(len(t.Data))
}

// L1 returns the sum of absolute values.
func (t *Tensor) L1() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// L2 returns the Euclidean norm.
func (t *Tensor) L2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// AbsMax returns the maximum absolute element value, or 0 for empty tensors.
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Add accumulates o into t elementwise. Shapes must match.
func (t *Tensor) Add(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", t.shape, o.shape))
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}

// Mul multiplies t by o elementwise (Hadamard product). Shapes must match.
func (t *Tensor) Mul(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", t.shape, o.shape))
	}
	for i := range t.Data {
		t.Data[i] *= o.Data[i]
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Equal reports elementwise equality within tolerance eps.
func (t *Tensor) Equal(o *Tensor, eps float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.Data {
		d := t.Data[i] - o.Data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}
