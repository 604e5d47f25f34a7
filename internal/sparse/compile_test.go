package sparse

import (
	"fmt"
	"testing"

	"rtoss/internal/nn"
	"rtoss/internal/pattern"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// compile_test.go property-tests the encode→compile→execute pipeline:
// for randomized pruned conv layers, every sparse execution format
// (pattern-grouped, CSR, bitmap) must reproduce tensor.Conv2DInto on
// the decoded dense weight within 1e-5.

// convCase is one randomized convolution configuration.
type convCase struct {
	n, c, h, w          int
	k, kh, kw           int
	stride, pad, groups int
}

// convCases exercises strides, padding, groups, tiny spatial sizes (the
// stride-2 truncation edge) and 1×1 kernels.
var convCases = []convCase{
	{1, 4, 8, 8, 6, 3, 3, 1, 1, 1},
	{2, 4, 7, 9, 4, 3, 3, 2, 1, 1},
	{1, 6, 8, 8, 6, 3, 3, 1, 0, 2},
	{1, 4, 2, 2, 4, 3, 3, 2, 1, 1}, // tiny input: taps fall off the edge
	{1, 8, 6, 6, 5, 1, 1, 1, 0, 1}, // pointwise
	{1, 4, 5, 5, 4, 1, 1, 2, 0, 2}, // strided pointwise, grouped
	{1, 3, 9, 9, 2, 5, 5, 1, 2, 1}, // 5×5 kernel, still <= 16 taps? (25 > 16: CSR only)
}

func randInput(r *rng.RNG, cs convCase) *tensor.Tensor {
	in := tensor.New(cs.n, cs.c, cs.h, cs.w)
	for i := range in.Data {
		in.Data[i] = float32(r.Range(-1, 1))
	}
	return in
}

func randWeight(r *rng.RNG, cs convCase) *tensor.Tensor {
	w := tensor.New(cs.k, cs.c/cs.groups, cs.kh, cs.kw)
	for i := range w.Data {
		w.Data[i] = float32(r.Range(-1, 1))
	}
	return w
}

func randBias(r *rng.RNG, k int) []float32 {
	b := make([]float32, k)
	for i := range b {
		b[i] = float32(r.Range(-0.5, 0.5))
	}
	return b
}

// conv runs one of the tensor conv kernels into a freshly allocated
// [N, k, OH, OW] destination for a kh×kw kernel.
func conv(in *tensor.Tensor, k, kh, kw, stride, pad int, kernel func(dst *tensor.Tensor)) *tensor.Tensor {
	dst := tensor.New(in.Dim(0), k, tensor.ConvOut(in.Dim(2), kh, stride, pad), tensor.ConvOut(in.Dim(3), kw, stride, pad))
	kernel(dst)
	return dst
}

// sparsify zeroes each weight with probability p.
func sparsify(r *rng.RNG, w *tensor.Tensor, p float64) {
	for i := range w.Data {
		if r.Float64() < p {
			w.Data[i] = 0
		}
	}
}

func assertClose(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i := range got.Data {
		d := got.Data[i] - want.Data[i]
		if d < -1e-5 || d > 1e-5 {
			t.Fatalf("%s: element %d is %g, want %g (diff %g)", label, i, got.Data[i], want.Data[i], d)
		}
	}
}

func TestCSRConvMatchesDense(t *testing.T) {
	r := rng.New(101)
	for ci, cs := range convCases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			in := randInput(r, cs)
			w := randWeight(r, cs)
			sparsify(r, w, 0.7)
			bias := randBias(r, cs.k)
			want := conv(in, cs.k, cs.kh, cs.kw, cs.stride, cs.pad, func(dst *tensor.Tensor) {
				tensor.Conv2DInto(dst, in, w, bias, cs.stride, cs.pad, cs.groups)
			})

			csr := EncodeCSR(w.Data, cs.k, w.Len()/cs.k)
			cc, err := csr.Conv(cs.kh, cs.kw)
			if err != nil {
				t.Fatal(err)
			}
			got := conv(in, cs.k, cs.kh, cs.kw, cs.stride, cs.pad, func(dst *tensor.Tensor) {
				tensor.Conv2DCSRInto(dst, in, cc, bias, cs.stride, cs.pad, cs.groups)
			})
			assertClose(t, "csr", got, want)
		})
	}
}

func TestBitmapConvMatchesDense(t *testing.T) {
	r := rng.New(202)
	for ci, cs := range convCases {
		if cs.kh*cs.kw > 16 {
			continue // bitmap masks are 16-bit
		}
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			in := randInput(r, cs)
			w := randWeight(r, cs)
			sparsify(r, w, 0.6)
			bias := randBias(r, cs.k)
			want := conv(in, cs.k, cs.kh, cs.kw, cs.stride, cs.pad, func(dst *tensor.Tensor) {
				tensor.Conv2DInto(dst, in, w, bias, cs.stride, cs.pad, cs.groups)
			})

			bm := EncodeBitmap(w.Data, cs.kh*cs.kw)
			cc, err := bm.Conv(cs.k, cs.c/cs.groups, cs.kh, cs.kw)
			if err != nil {
				t.Fatal(err)
			}
			got := conv(in, cs.k, cs.kh, cs.kw, cs.stride, cs.pad, func(dst *tensor.Tensor) {
				tensor.Conv2DCSRInto(dst, in, cc, bias, cs.stride, cs.pad, cs.groups)
			})
			assertClose(t, "bitmap", got, want)
		})
	}
}

func TestPatternConvMatchesDense(t *testing.T) {
	r := rng.New(303)
	dictMasks := pattern.NewDictionary(3).Masks
	dict := make([]uint16, len(dictMasks))
	for i, m := range dictMasks {
		dict[i] = uint16(m)
	}
	for ci, cs := range convCases {
		if cs.kh != 3 || cs.kw != 3 {
			continue // pattern masks apply to 3×3 kernels
		}
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			in := randInput(r, cs)
			w := randWeight(r, cs)
			// Pattern-prune every kernel with a random dictionary mask,
			// the way a pattern pruner would.
			ks := cs.kh * cs.kw
			for k := 0; k < w.Len()/ks; k++ {
				mask := dictMasks[int(r.Uint64()%uint64(len(dictMasks)))]
				mask.Apply(w.Data[k*ks : (k+1)*ks])
			}
			bias := randBias(r, cs.k)
			want := conv(in, cs.k, cs.kh, cs.kw, cs.stride, cs.pad, func(dst *tensor.Tensor) {
				tensor.Conv2DInto(dst, in, w, bias, cs.stride, cs.pad, cs.groups)
			})

			pg, err := EncodePatternGrouped(w.Data, ks, dict)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := pg.Conv(cs.k, cs.c/cs.groups, cs.kh, cs.kw)
			if err != nil {
				t.Fatal(err)
			}
			got := conv(in, cs.k, cs.kh, cs.kw, cs.stride, cs.pad, func(dst *tensor.Tensor) {
				tensor.Conv2DPatternInto(dst, in, pc, bias, cs.stride, cs.pad, cs.groups)
			})
			assertClose(t, "pattern", got, want)
		})
	}
}

// TestCompileLayerHelpers checks the nn.Layer-level compile entry
// points the engine uses.
func TestCompileLayerHelpers(t *testing.T) {
	r := rng.New(404)
	l := &nn.Layer{
		ID: 1, Name: "conv", Kind: nn.Conv,
		InC: 4, OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1, Group: 1,
		Weight: tensor.New(6, 4, 3, 3),
	}
	dictMasks := pattern.NewDictionary(2).Masks
	dict := make([]uint16, len(dictMasks))
	for i, m := range dictMasks {
		dict[i] = uint16(m)
	}
	for i := range l.Weight.Data {
		l.Weight.Data[i] = float32(r.Range(-1, 1))
	}
	for k := 0; k < l.KernelCount(); k++ {
		mask := dictMasks[int(r.Uint64()%uint64(len(dictMasks)))]
		mask.Apply(l.Weight.Data[k*9 : (k+1)*9])
	}
	in := tensor.New(1, 4, 6, 6)
	for i := range in.Data {
		in.Data[i] = float32(r.Range(-1, 1))
	}
	layerConv := func(kernel func(dst *tensor.Tensor)) *tensor.Tensor {
		return conv(in, l.OutC, l.KH, l.KW, l.Stride, l.Pad, kernel)
	}
	want := layerConv(func(dst *tensor.Tensor) { tensor.Conv2DInto(dst, in, l.Weight, nil, l.Stride, l.Pad, l.Group) })

	pc, err := CompilePatternConv(l, dict)
	if err != nil {
		t.Fatal(err)
	}
	if pc.NNZ() != int(l.NNZ()) {
		t.Fatalf("pattern NNZ %d, layer has %d", pc.NNZ(), l.NNZ())
	}
	assertClose(t, "pattern", layerConv(func(dst *tensor.Tensor) { tensor.Conv2DPatternInto(dst, in, pc, nil, l.Stride, l.Pad, l.Group) }), want)

	cc, err := CompileCSRConv(l)
	if err != nil {
		t.Fatal(err)
	}
	if cc.NNZ() != int(l.NNZ()) {
		t.Fatalf("csr NNZ %d, layer has %d", cc.NNZ(), l.NNZ())
	}
	assertClose(t, "csr", layerConv(func(dst *tensor.Tensor) { tensor.Conv2DCSRInto(dst, in, cc, nil, l.Stride, l.Pad, l.Group) }), want)

	// A kernel mask outside the dictionary must refuse to compile.
	dense := &nn.Layer{
		ID: 2, Name: "dense", Kind: nn.Conv,
		InC: 1, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1, Group: 1,
		Weight: tensor.Full(1, 1, 1, 3, 3),
	}
	if _, err := CompilePatternConv(dense, dict); err == nil {
		t.Fatal("expected off-dictionary mask to fail pattern compilation")
	}
}
