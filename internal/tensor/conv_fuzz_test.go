package tensor

import (
	"math"
	"testing"

	"rtoss/internal/rng"
)

// conv2DReference is the direct 7-deep convolution loop Conv2DInto
// replaced, kept verbatim as the differential oracle: each output
// element starts at the bias and accumulates input*weight over
// (ic, ky, kx) in row-major order, skipping out-of-bounds taps.
func conv2DReference(dst, input, weight *Tensor, bias []float32, stride, pad, groups int) {
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	k, cg, r, s := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	oh, ow := convCheck(input, k, cg, r, s, bias, stride, pad, groups)
	checkConvDst(dst, n, k, oh, ow)
	kPerG := k / groups
	cPerG := c / groups
	in, wd, od := input.Data, weight.Data, dst.Data
	for b := 0; b < n; b++ {
		for ok := 0; ok < k; ok++ {
			g := ok / kPerG
			var bv float32
			if bias != nil {
				bv = bias[ok]
			}
			wBase0 := ok * cPerG * r * s
			outPlane := od[((b*k+ok)*oh)*ow : ((b*k+ok)*oh+oh)*ow]
			for oy := 0; oy < oh; oy++ {
				outRow := outPlane[oy*ow : (oy+1)*ow]
				for ox := 0; ox < ow; ox++ {
					acc := bv
					for ic := 0; ic < cPerG; ic++ {
						inPlane := in[((b*c+g*cPerG+ic)*h)*w:]
						wBase := wBase0 + ic*r*s
						for ky := 0; ky < r; ky++ {
							iy := oy*stride - pad + ky
							if iy < 0 || iy >= h {
								continue
							}
							inRow := inPlane[iy*w : iy*w+w]
							wRow := wd[wBase+ky*s : wBase+ky*s+s]
							for kx := 0; kx < s; kx++ {
								ix := ox*stride - pad + kx
								if ix < 0 || ix >= w {
									continue
								}
								acc += inRow[ix] * wRow[kx]
							}
						}
					}
					outRow[ox] = acc
				}
			}
		}
	}
}

// convKernels are the kernel shapes FuzzConv2D draws from: the square
// sizes the zoo uses (1, 3, the 6×6 stem) plus 5×5 and the two
// non-square 1×3/3×1 shapes that catch a transposed KH/KW.
var convKernels = [][2]int{{1, 1}, {3, 3}, {5, 5}, {6, 6}, {1, 3}, {3, 1}}

// convSpecial are the non-finite inputs the fuzzer salts in. 0·Inf and
// Inf−Inf make NaN, so they pin that the dense kernel visits every
// tap, zeros included, exactly as the reference does.
var convSpecial = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}

// FuzzConv2D holds the three conv kernels to conv2DReference. The
// arguments pick a point of the shape space: batch 1–2, groups 1–3,
// a kernel from convKernels, stride 1–3, pad 0..max(KH, KW), H and W
// 1–13; opts bit 0 adds a bias and bit 1 salts the input with ±Inf and
// NaN. seed draws the channel counts, values and sparsity masks.
//
//   - Conv2DInto must equal the reference bit for bit (or both NaN).
//   - Conv2DPatternInto and Conv2DCSRInto, built from random masks over
//     the same weights, must match the reference on the masked weights
//     within 1e-5 wherever the reference is finite. (They skip pruned
//     taps, so an Inf input under a pruned weight yields no 0·Inf NaN.)
//
// The seed corpus lives in testdata/fuzz/FuzzConv2D; the in-code seeds
// add a deterministic sweep over every kernel, stride and group count.
func FuzzConv2D(f *testing.F) {
	for i := 0; i < 54; i++ {
		f.Add(uint64(i+1), uint8(i), uint8(i/6), uint8(i), uint8(i/18), uint8(i), uint8(5+i), uint8(9+i/2), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, groups, kernel, stride, pad, h, w, opts uint8) {
		kk := convKernels[int(kernel)%len(convKernels)]
		kh, kw := kk[0], kk[1]
		cs := convShape{
			n: 1 + int(n)%2, groups: 1 + int(groups)%3, kh: kh, kw: kw,
			stride: 1 + int(stride)%3, pad: int(pad) % (max(kh, kw) + 1),
			h: 1 + int(h)%13, w: 1 + int(w)%13,
		}
		if ConvOut(cs.h, kh, cs.stride, cs.pad) <= 0 || ConvOut(cs.w, kw, cs.stride, cs.pad) <= 0 {
			return // no output: convCheck rejects the shape
		}
		checkConvKernels(t, cs, rng.New(seed), opts&1 != 0, opts&2 != 0)
	})
}

// convShape is one point of FuzzConv2D's shape space.
type convShape struct {
	n, groups, kh, kw, stride, pad, h, w int
}

func checkConvKernels(t *testing.T, cs convShape, r *rng.RNG, withBias, special bool) {
	cPerG, kPerG := 1+r.Intn(3), 1+r.Intn(3)
	c, k := cs.groups*cPerG, cs.groups*kPerG
	in := New(cs.n, c, cs.h, cs.w)
	for i := range in.Data {
		if special && r.Intn(6) == 0 {
			in.Data[i] = convSpecial[r.Intn(len(convSpecial))]
		} else {
			in.Data[i] = float32(r.Range(-1, 1))
		}
	}
	weight := New(k, cPerG, cs.kh, cs.kw)
	for i := range weight.Data {
		weight.Data[i] = float32(r.Range(-1, 1))
	}
	var bias []float32
	if withBias {
		bias = make([]float32, k)
		for i := range bias {
			bias[i] = float32(r.Range(-1, 1))
		}
	}
	oh, ow := ConvOut(cs.h, cs.kh, cs.stride, cs.pad), ConvOut(cs.w, cs.kw, cs.stride, cs.pad)
	run := func(conv func(dst *Tensor)) *Tensor {
		dst := New(cs.n, k, oh, ow)
		for i := range dst.Data {
			dst.Data[i] = 12345 // every element must be overwritten
		}
		conv(dst)
		return dst
	}
	refOn := func(wt *Tensor) *Tensor {
		return run(func(dst *Tensor) { conv2DReference(dst, in, wt, bias, cs.stride, cs.pad, cs.groups) })
	}

	want := refOn(weight)
	got := run(func(dst *Tensor) { Conv2DInto(dst, in, weight, bias, cs.stride, cs.pad, cs.groups) })
	for i, v := range want.Data {
		g := got.Data[i]
		if math.Float32bits(g) != math.Float32bits(v) && !(g != g && v != v) {
			t.Fatalf("%+v c=%d k=%d: dense element %d = %v (%#x), reference %v (%#x)",
				cs, c, k, i, g, math.Float32bits(g), v, math.Float32bits(v))
		}
	}

	pc, pw := randPatternConv(r, weight)
	got = run(func(dst *Tensor) { Conv2DPatternInto(dst, in, pc, bias, cs.stride, cs.pad, cs.groups) })
	assertCloseFinite(t, cs, "pattern", got, refOn(pw))

	cc, cw := randCSRConv(r, weight)
	got = run(func(dst *Tensor) { Conv2DCSRInto(dst, in, cc, bias, cs.stride, cs.pad, cs.groups) })
	assertCloseFinite(t, cs, "csr", got, refOn(cw))
}

// randPatternConv draws a dictionary of up to four random tap masks
// (each possibly empty or full), assigns each spatial kernel of
// weight one entry, and returns the pattern encoding with the masked
// dense weight it stands for.
func randPatternConv(r *rng.RNG, weight *Tensor) (*PatternConv, *Tensor) {
	k, cg, kh, kw := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	ks := kh * kw
	dict := make([][]int32, 1+r.Intn(4))
	for d := range dict {
		keep := r.Float64()
		for off := 0; off < ks; off++ {
			if r.Float64() < keep {
				dict[d] = append(dict[d], int32(off))
			}
		}
	}
	pc := &PatternConv{OutC: k, InCPerG: cg, KH: kh, KW: kw, DictTaps: dict}
	masked := New(weight.Shape()...)
	for kk := 0; kk < k*cg; kk++ {
		d := r.Intn(len(dict))
		pc.Index = append(pc.Index, uint8(d))
		pc.ValPtr = append(pc.ValPtr, int32(len(pc.Values)))
		for _, off := range dict[d] {
			v := weight.Data[kk*ks+int(off)]
			pc.Values = append(pc.Values, v)
			masked.Data[kk*ks+int(off)] = v
		}
	}
	return pc, masked
}

// randCSRConv keeps each weight with one random probability and
// returns the CSR encoding with the masked dense weight it stands for.
func randCSRConv(r *rng.RNG, weight *Tensor) (*CSRConv, *Tensor) {
	k, cg, kh, kw := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	row := cg * kh * kw
	cc := &CSRConv{OutC: k, InCPerG: cg, KH: kh, KW: kw, RowPtr: []int32{0}}
	masked := New(weight.Shape()...)
	keep := r.Float64()
	for oc := 0; oc < k; oc++ {
		for col := 0; col < row; col++ {
			if r.Float64() < keep {
				v := weight.Data[oc*row+col]
				cc.ColIdx = append(cc.ColIdx, int32(col))
				cc.Values = append(cc.Values, v)
				masked.Data[oc*row+col] = v
			}
		}
		cc.RowPtr = append(cc.RowPtr, int32(len(cc.Values)))
	}
	return cc, masked
}

// assertCloseFinite fails unless got is within 1e-5 of want at every
// element where want is finite.
func assertCloseFinite(t *testing.T, cs convShape, label string, got, want *Tensor) {
	t.Helper()
	for i, v := range want.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			continue
		}
		if d := got.Data[i] - v; d < -1e-5 || d > 1e-5 || d != d {
			t.Fatalf("%+v: %s element %d = %g, reference %g", cs, label, i, got.Data[i], v)
		}
	}
}
