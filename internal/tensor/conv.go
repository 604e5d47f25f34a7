package tensor

import "fmt"

// ConvOut returns the output spatial size of a convolution along one
// dimension: floor((in + 2*pad - kernel)/stride) + 1.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// convCheck validates common convolution arguments and returns the
// output spatial size.
func convCheck(input *Tensor, k, cg, r, s int, bias []float32, stride, pad, groups int) (oh, ow int) {
	if input.Rank() != 4 {
		panic("tensor: convolution requires a 4-D input")
	}
	c, h, w := input.Dim(1), input.Dim(2), input.Dim(3)
	if groups < 1 {
		panic("tensor: convolution groups must be >= 1")
	}
	if c%groups != 0 || k%groups != 0 {
		panic(fmt.Sprintf("tensor: convolution channels %d / filters %d not divisible by groups %d", c, k, groups))
	}
	if cg != c/groups {
		panic(fmt.Sprintf("tensor: convolution weight expects %d input channels per group, input has %d", cg, c/groups))
	}
	if bias != nil && len(bias) != k {
		panic("tensor: convolution bias length must equal output channels")
	}
	oh = ConvOut(h, r, stride, pad)
	ow = ConvOut(w, s, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: convolution produces empty output for input %dx%d kernel %dx%d stride %d pad %d", h, w, r, s, stride, pad))
	}
	return oh, ow
}

// checkConvDst validates that dst has shape [n, k, oh, ow].
func checkConvDst(dst *Tensor, n, k, oh, ow int) {
	if dst.Rank() != 4 || dst.Dim(0) != n || dst.Dim(1) != k || dst.Dim(2) != oh || dst.Dim(3) != ow {
		panic(fmt.Sprintf("tensor: convolution dst shape %v, want [%d %d %d %d]", dst.Shape(), n, k, oh, ow))
	}
}

// Conv2DInto computes a 2-D cross-correlation (the deep-learning
// "convolution") of input [N, C, H, W] with the dense weight
// [K, C/groups, R, S], optional bias [K], stride and symmetric zero
// padding, into dst of shape [N, K, OH, OW] (every element is
// overwritten, so dst need not be zeroed).
//
// It is the all-taps encoding of the tap-accumulate loop that
// Conv2DPatternInto and Conv2DCSRInto run: each output plane starts at
// the bias and every weight, zeros included, adds its shifted input
// plane in (ic, ky, kx) order. A pattern or CSR encoding of the same
// weight therefore sums the same non-zero terms in the same order.
//
//rtoss:noalloc
func Conv2DInto(dst, input, weight *Tensor, bias []float32, stride, pad, groups int) {
	if weight.Rank() != 4 {
		panic("tensor: Conv2DInto requires a 4-D weight")
	}
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	k, cg, r, s := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	oh, ow := convCheck(input, k, cg, r, s, bias, stride, pad, groups)
	checkConvDst(dst, n, k, oh, ow)
	kPerG := k / groups
	for b := 0; b < n; b++ {
		for ok := 0; ok < k; ok++ {
			outPlane := biasPlane(dst.Data, b*k+ok, oh*ow, bias, ok)
			g := ok / kPerG
			wk := weight.Data[ok*cg*r*s : (ok+1)*cg*r*s]
			for ic := 0; ic < cg; ic++ {
				inC := g*cg + ic
				inPlane := input.Data[(b*c+inC)*h*w : (b*c+inC+1)*h*w]
				for t, v := range wk[ic*r*s : (ic+1)*r*s] {
					accumTap(outPlane, inPlane, oh, ow, h, w, stride, pad, t/s, t%s, v)
				}
			}
		}
	}
}

// MaxPool2D applies max pooling with the given kernel, stride and padding.
// Padded positions are treated as -inf (ignored).
func MaxPool2D(input *Tensor, kernel, stride, pad int) *Tensor {
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oh := ConvOut(h, kernel, stride, pad)
	ow := ConvOut(w, kernel, stride, pad)
	out := New(n, c, oh, ow)
	MaxPool2DInto(out, input, kernel, stride, pad)
	return out
}

// MaxPool2DInto is MaxPool2D writing into a caller-provided dst of
// shape [N, C, OH, OW]; every element is overwritten. Each window is
// clipped to the input once and scanned as contiguous row segments,
// starting from its first in-bounds element and replacing the running
// max only on v > m, so NaN, -0 and -Inf propagate exactly as a
// per-element scan in row-major window order would. A window lying
// entirely in the padding (pad >= kernel) yields 0.
//
//rtoss:noalloc
func MaxPool2DInto(out, input *Tensor, kernel, stride, pad int) {
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oh := ConvOut(h, kernel, stride, pad)
	ow := ConvOut(w, kernel, stride, pad)
	checkConvDst(out, n, c, oh, ow)
	for p := 0; p < n*c; p++ {
		inPlane := input.Data[p*h*w : (p+1)*h*w]
		outPlane := out.Data[p*oh*ow : (p+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			y0, y1 := poolWindow(oy*stride-pad, kernel, h)
			outRow := outPlane[oy*ow : (oy+1)*ow]
			for ox := range outRow {
				x0, x1 := poolWindow(ox*stride-pad, kernel, w)
				if y0 >= y1 || x0 >= x1 {
					outRow[ox] = 0
					continue
				}
				m := inPlane[y0*w+x0]
				for iy := y0; iy < y1; iy++ {
					for _, v := range inPlane[iy*w+x0 : iy*w+x1] {
						if v > m {
							m = v
						}
					}
				}
				outRow[ox] = m
			}
		}
	}
}

// poolWindow clips the window [start, start+kernel) to [0, size).
// The result is empty (lo >= hi) when the window lies in the padding.
func poolWindow(start, kernel, size int) (lo, hi int) {
	return max(start, 0), min(start+kernel, size)
}

// UpsampleNearest scales spatial dimensions by an exact integer factor
// using nearest-neighbour copy: out[y][x] = in[y/scale][x/scale]. It
// panics when scale < 1.
func UpsampleNearest(input *Tensor, scale int) *Tensor {
	if scale < 1 {
		panic(fmt.Sprintf("tensor: UpsampleNearest scale %d must be >= 1", scale))
	}
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	out := New(n, c, scale*h, scale*w)
	UpsampleNearestInto(out, input, scale)
	return out
}

// UpsampleNearestInto is UpsampleNearest writing into a caller-provided
// dst of shape [N, C, scale*H, scale*W]; every element is overwritten.
//
//rtoss:noalloc
func UpsampleNearestInto(out, input *Tensor, scale int) {
	if scale < 1 {
		panic(fmt.Sprintf("tensor: UpsampleNearest scale %d must be >= 1", scale)) //rtoss:allow noalloc (invalid-argument cold path)
	}
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oh, ow := scale*h, scale*w
	checkConvDst(out, n, c, oh, ow)
	for p := 0; p < n*c; p++ {
		inPlane := input.Data[p*h*w : (p+1)*h*w]
		outPlane := out.Data[p*oh*ow : (p+1)*oh*ow]
		for y := 0; y < oh; y++ {
			inRow := inPlane[(y/scale)*w : (y/scale+1)*w]
			outRow := outPlane[y*ow : (y+1)*ow]
			if scale == 1 {
				copy(outRow, inRow)
				continue
			}
			for x := 0; x < ow; x++ {
				outRow[x] = inRow[x/scale]
			}
		}
	}
}

// UpsampleNearest2x doubles spatial dimensions by nearest-neighbour copy.
func UpsampleNearest2x(input *Tensor) *Tensor {
	return UpsampleNearest(input, 2)
}

// ConcatChannels concatenates 4-D tensors along the channel dimension.
// Batch and spatial dimensions must match.
func ConcatChannels(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatChannels of nothing")
	}
	n, h, w := ts[0].Dim(0), ts[0].Dim(2), ts[0].Dim(3)
	total := 0
	for _, t := range ts {
		if t.Dim(0) != n || t.Dim(2) != h || t.Dim(3) != w {
			panic("tensor: ConcatChannels shape mismatch")
		}
		total += t.Dim(1)
	}
	out := New(n, total, h, w)
	ConcatChannelsInto(out, ts...)
	return out
}

// ConcatChannelsInto is ConcatChannels writing into a caller-provided
// dst of shape [N, sum(C_i), H, W]; every element is overwritten.
func ConcatChannelsInto(out *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		panic("tensor: ConcatChannels of nothing")
	}
	n, h, w := ts[0].Dim(0), ts[0].Dim(2), ts[0].Dim(3)
	total := 0
	for _, t := range ts {
		if t.Dim(0) != n || t.Dim(2) != h || t.Dim(3) != w {
			panic("tensor: ConcatChannels shape mismatch")
		}
		total += t.Dim(1)
	}
	checkConvDst(out, n, total, h, w)
	at := 0
	for _, t := range ts {
		c := t.Dim(1)
		for b := 0; b < n; b++ {
			src := t.Data[b*c*h*w : (b+1)*c*h*w]
			dst := out.Data[(b*total+at)*h*w : (b*total+at+c)*h*w]
			copy(dst, src)
		}
		at += c
	}
}
