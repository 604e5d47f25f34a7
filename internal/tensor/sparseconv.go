package tensor

import "fmt"

// sparseconv.go holds the one convolution loop every engine mode runs,
// accumTap, and the two compressed weight encodings it executes beside
// the dense one (Conv2DInto), mirroring the storage formats in
// internal/sparse:
//
//   - PatternConv: the pattern-grouped fast path. Every spatial kernel
//     references one mask from a small shared dictionary, so the inner
//     loop iterates only the <=k surviving taps per kernel and the
//     per-kernel metadata is a single dictionary index — the execution
//     counterpart of R-TOSS's "21 pre-defined patterns" argument.
//   - CSRConv: compressed sparse rows over [OutC, InC/groups*KH*KW],
//     the fallback for unstructured, filter and channel baselines whose
//     zeros follow no shared pattern.
//
// All three kernels are tap-major: for each (batch, output-channel)
// plane the output is initialised to the bias and each weight the
// encoding stores then accumulates a shifted copy of its input rows,
// which keeps the inner loops contiguous and free of per-element
// bounds arithmetic. The encodings differ only in which taps they
// visit: dense visits all of them, pattern and CSR only the survivors.

// PatternConv is a convolution weight compiled to the pattern-grouped
// sparse execution format.
type PatternConv struct {
	OutC, InCPerG, KH, KW int
	// DictTaps[d] holds the kept tap offsets (ky*KW + kx, ascending) of
	// dictionary mask d.
	DictTaps [][]int32
	// Index[k] is the dictionary entry of spatial kernel k, where
	// k = oc*InCPerG + ic in row-major weight order.
	Index []uint8
	// ValPtr[k] indexes the first surviving value of kernel k in
	// Values; kernel k holds len(DictTaps[Index[k]]) values, stored in
	// ascending tap order.
	ValPtr []int32
	Values []float32
}

// NNZ returns the number of surviving weights.
func (p *PatternConv) NNZ() int { return len(p.Values) }

// CSRConv is a convolution weight compiled to compressed sparse rows:
// one row per output channel over the flattened [InCPerG*KH*KW]
// reduction axis, columns ascending within each row.
type CSRConv struct {
	OutC, InCPerG, KH, KW int
	RowPtr                []int32
	ColIdx                []int32
	Values                []float32
}

// NNZ returns the number of surviving weights.
func (c *CSRConv) NNZ() int { return len(c.Values) }

// accumTap accumulates v times the (ky, kx)-shifted input plane into
// the output plane, touching only the output positions whose input tap
// is in bounds.
//
//rtoss:noalloc
func accumTap(outPlane, inPlane []float32, oh, ow, h, w, stride, pad, ky, kx int, v float32) {
	// Go's integer division truncates toward zero, so negative
	// numerators (tap entirely below/right of the padded input) must
	// bail out before the division rounds them up to row 0.
	oyTop, oxTop := h-1+pad-ky, w-1+pad-kx
	if oyTop < 0 || oxTop < 0 {
		return
	}
	oyMin := 0
	if pad > ky {
		oyMin = (pad - ky + stride - 1) / stride
	}
	oyMax := oyTop / stride
	if oyMax > oh-1 {
		oyMax = oh - 1
	}
	oxMin := 0
	if pad > kx {
		oxMin = (pad - kx + stride - 1) / stride
	}
	oxMax := oxTop / stride
	if oxMax > ow-1 {
		oxMax = ow - 1
	}
	if oxMax < oxMin {
		return
	}
	for oy := oyMin; oy <= oyMax; oy++ {
		iy := oy*stride - pad + ky
		inRow := inPlane[iy*w : iy*w+w]
		outRow := outPlane[oy*ow : oy*ow+ow]
		if stride == 1 {
			ix := oxMin - pad + kx
			src := inRow[ix : ix+oxMax-oxMin+1]
			dst := outRow[oxMin : oxMax+1]
			for i, sv := range src {
				dst[i] += v * sv
			}
			continue
		}
		ix := oxMin*stride - pad + kx
		for ox := oxMin; ox <= oxMax; ox++ {
			outRow[ox] += v * inRow[ix]
			ix += stride
		}
	}
}

// biasPlane returns output plane p (size elements) of data, filled
// with bias[oc], or with 0 when bias is nil.
//
//rtoss:noalloc
func biasPlane(data []float32, p, size int, bias []float32, oc int) []float32 {
	plane := data[p*size : (p+1)*size]
	var bv float32
	if bias != nil {
		bv = bias[oc]
	}
	for i := range plane {
		plane[i] = bv
	}
	return plane
}

// Conv2DPatternInto computes the convolution of input [N, C, H, W] with
// a pattern-grouped sparse weight into dst of shape [N, OutC, OH, OW]
// (every element is overwritten). It visits the kept taps in the order
// Conv2DInto visits them on the decoded dense weight, so for finite
// inputs the two agree bit for bit (up to the sign of an exact zero):
// the zero taps it skips add nothing to a sum.
//
//rtoss:noalloc
func Conv2DPatternInto(dst, input *Tensor, pc *PatternConv, bias []float32, stride, pad, groups int) {
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oh, ow := convCheck(input, pc.OutC, pc.InCPerG, pc.KH, pc.KW, bias, stride, pad, groups)
	checkConvDst(dst, n, pc.OutC, oh, ow)
	if len(pc.Index) != pc.OutC*pc.InCPerG {
		panic(fmt.Sprintf("tensor: PatternConv has %d kernel indices, want %d", len(pc.Index), pc.OutC*pc.InCPerG)) //rtoss:allow noalloc (invalid-argument cold path)
	}
	kPerG := pc.OutC / groups
	for b := 0; b < n; b++ {
		for ok := 0; ok < pc.OutC; ok++ {
			outPlane := biasPlane(dst.Data, b*pc.OutC+ok, oh*ow, bias, ok)
			g := ok / kPerG
			for ic := 0; ic < pc.InCPerG; ic++ {
				kk := ok*pc.InCPerG + ic
				taps := pc.DictTaps[pc.Index[kk]]
				if len(taps) == 0 {
					continue
				}
				vals := pc.Values[pc.ValPtr[kk] : int(pc.ValPtr[kk])+len(taps)]
				inC := g*pc.InCPerG + ic
				inPlane := input.Data[((b*c+inC)*h)*w : ((b*c+inC)*h+h)*w]
				for t, off := range taps {
					accumTap(outPlane, inPlane, oh, ow, h, w, stride, pad, int(off)/pc.KW, int(off)%pc.KW, vals[t])
				}
			}
		}
	}
}

// Conv2DCSRInto computes the convolution of input [N, C, H, W] with a
// CSR sparse weight into dst of shape [N, OutC, OH, OW] (every element
// is overwritten). Columns ascend within each row, so it too visits
// taps in Conv2DInto's order and matches it on the decoded dense weight.
//
//rtoss:noalloc
func Conv2DCSRInto(dst, input *Tensor, cc *CSRConv, bias []float32, stride, pad, groups int) {
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oh, ow := convCheck(input, cc.OutC, cc.InCPerG, cc.KH, cc.KW, bias, stride, pad, groups)
	checkConvDst(dst, n, cc.OutC, oh, ow)
	if len(cc.RowPtr) != cc.OutC+1 {
		panic(fmt.Sprintf("tensor: CSRConv has %d row pointers, want %d", len(cc.RowPtr), cc.OutC+1)) //rtoss:allow noalloc (invalid-argument cold path)
	}
	kPerG := cc.OutC / groups
	ks := cc.KH * cc.KW
	for b := 0; b < n; b++ {
		for ok := 0; ok < cc.OutC; ok++ {
			outPlane := biasPlane(dst.Data, b*cc.OutC+ok, oh*ow, bias, ok)
			g := ok / kPerG
			for e := cc.RowPtr[ok]; e < cc.RowPtr[ok+1]; e++ {
				col := int(cc.ColIdx[e])
				ic := col / ks
				off := col % ks
				inC := g*cc.InCPerG + ic
				inPlane := input.Data[((b*c+inC)*h)*w : ((b*c+inC)*h+h)*w]
				accumTap(outPlane, inPlane, oh, ow, h, w, stride, pad, off/cc.KW, off%cc.KW, cc.Values[e])
			}
		}
	}
}
