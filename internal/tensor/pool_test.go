package tensor

import (
	"math"
	"testing"

	"rtoss/internal/rng"
)

// maxPoolReference is the per-element max-pool loop MaxPool2DInto
// replaced: every window position through At/Set, padding skipped,
// the first in-bounds element seeding the max and later ones replacing
// it only on v > m. The differential test holds the row-segment kernel
// to it bit for bit.
func maxPoolReference(out, input *Tensor, kernel, stride, pad int) {
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oh := ConvOut(h, kernel, stride, pad)
	ow := ConvOut(w, kernel, stride, pad)
	for b := 0; b < n; b++ {
		for ic := 0; ic < c; ic++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					first := true
					var m float32
					for ky := 0; ky < kernel; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kernel; kx++ {
							ix := ox*stride - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := input.At(b, ic, iy, ix)
							if first || v > m {
								m = v
								first = false
							}
						}
					}
					out.Set(m, b, ic, oy, ox)
				}
			}
		}
	}
}

// poolSpecial are the values whose comparisons are order-sensitive:
// NaN never wins or loses a > test, and -0 and +0 compare equal.
var poolSpecial = []float32{
	float32(math.NaN()), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0,
}

// TestMaxPool2DIntoMatchesReference checks MaxPool2DInto against the
// per-element loop, bitwise, over random shapes, every kernel/stride
// pairing with pad from 0 to kernel and inputs salted with NaN, -Inf
// and -0. Every pad == kernel case has a window lying wholly in the
// padding (the first column's), which both loops must answer with 0.
func TestMaxPool2DIntoMatchesReference(t *testing.T) {
	r := rng.New(20)
	cases := 0
	for _, kernel := range []int{1, 2, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for pad := 0; pad <= kernel; pad++ {
				for trial := 0; trial < 12; trial++ {
					n, c := 1+r.Intn(2), 1+r.Intn(4)
					h, w := 1+r.Intn(13), 1+r.Intn(13)
					oh := ConvOut(h, kernel, stride, pad)
					ow := ConvOut(w, kernel, stride, pad)
					if oh <= 0 || ow <= 0 {
						continue
					}
					in := New(n, c, h, w)
					for i := range in.Data {
						if r.Intn(6) == 0 {
							in.Data[i] = poolSpecial[r.Intn(len(poolSpecial))]
						} else {
							in.Data[i] = float32(r.Range(-4, 4))
						}
					}
					got, want := New(n, c, oh, ow), New(n, c, oh, ow)
					for i := range got.Data {
						got.Data[i] = 7 // every element must be overwritten
					}
					MaxPool2DInto(got, in, kernel, stride, pad)
					maxPoolReference(want, in, kernel, stride, pad)
					for i, v := range want.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
							t.Fatalf("in %v kernel %d stride %d pad %d: element %d = %v (%#x), want %v (%#x)",
								in.Shape(), kernel, stride, pad, i, got.Data[i], math.Float32bits(got.Data[i]), v, math.Float32bits(v))
						}
					}
					cases++
				}
			}
		}
	}
	if cases < 300 {
		t.Fatalf("only %d shape cases ran; the generator lost coverage", cases)
	}
}

// TestPoolAndIndexAllocs pins the zero-allocation contract of the
// kernels the engine calls per layer (the dense, pattern and CSR convs,
// MaxPool2DInto, UpsampleNearestInto) and of At/Set, whose bounds-check
// panic must not make the variadic index escape.
func TestPoolAndIndexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates internally; zero-alloc is only meaningful without it")
	}
	in := New(1, 4, 20, 20)
	for i := range in.Data {
		in.Data[i] = float32(i % 17)
	}
	pooled := New(1, 4, 20, 20)
	up := New(1, 4, 40, 40)
	r := rng.New(21)
	weight := randTensor(r, 6, 2, 3, 3)
	bias := make([]float32, 6)
	pc, _ := randPatternConv(r, weight)
	cc, _ := randCSRConv(r, weight)
	conv := New(1, 6, 10, 10)
	cases := []struct {
		name string
		f    func()
	}{
		{"Conv2DInto", func() { Conv2DInto(conv, in, weight, bias, 2, 1, 2) }},
		{"Conv2DPatternInto", func() { Conv2DPatternInto(conv, in, pc, bias, 2, 1, 2) }},
		{"Conv2DCSRInto", func() { Conv2DCSRInto(conv, in, cc, bias, 2, 1, 2) }},
		{"MaxPool2DInto", func() { MaxPool2DInto(pooled, in, 5, 1, 2) }},
		{"UpsampleNearestInto", func() { UpsampleNearestInto(up, in, 2) }},
		{"At+Set", func() { in.Set(in.At(0, 1, 2, 3)+1, 0, 1, 2, 3) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}
