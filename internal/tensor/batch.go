package tensor

import "fmt"

// batch.go holds the NCHW batching helpers the batched forward path is
// built on: stacking independent images into one batch tensor, viewing
// a single image of a batch without copying, and splitting a batch
// back into per-image tensors.

// Stack concatenates images along the batch dimension. Every input must
// be a single image — rank 3 ([C, H, W]) or rank 4 with batch size 1
// ([1, C, H, W]) — and all images must share C, H and W. The result is
// a fresh [N, C, H, W] tensor.
func Stack(inputs []*Tensor) *Tensor { return StackArena(inputs, nil) }

// StackArena is Stack drawing the batch tensor from an arena instead of
// the heap (nil arena behaves exactly like Stack). A caller that Puts
// the batch back once the forward pass is done makes repeated batching
// allocation-free.
//
//rtoss:arena-owner
func StackArena(inputs []*Tensor, arena *Arena) *Tensor {
	if len(inputs) == 0 {
		panic("tensor: Stack of nothing")
	}
	c, h, w := imageDims(inputs[0])
	var out *Tensor
	if arena == nil {
		out = New(len(inputs), c, h, w)
	} else {
		out = arena.Get(len(inputs), c, h, w)
	}
	per := c * h * w
	for i, t := range inputs {
		tc, th, tw := imageDims(t)
		if tc != c || th != h || tw != w {
			panic(fmt.Sprintf("tensor: Stack image %d has shape %v, want [%d %d %d]", i, t.Shape(), c, h, w))
		}
		copy(out.Data[i*per:(i+1)*per], t.Data)
	}
	return out
}

// imageDims returns the C, H, W of a single-image tensor.
func imageDims(t *Tensor) (c, h, w int) {
	switch {
	case t.Rank() == 3:
		return t.Dim(0), t.Dim(1), t.Dim(2)
	case t.Rank() == 4 && t.Dim(0) == 1:
		return t.Dim(1), t.Dim(2), t.Dim(3)
	}
	panic(fmt.Sprintf("tensor: %v is not a single image ([C H W] or [1 C H W])", t.Shape()))
}

// BatchView returns image b of a 4-D batch tensor as a [1, C, H, W]
// view sharing the underlying data (NCHW batches are batch-major, so
// each image is contiguous). Writes through the view are visible in t.
func (t *Tensor) BatchView(b int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: BatchView requires a 4-D tensor, got %v", t.Shape()))
	}
	if b < 0 || b >= t.Dim(0) {
		panic(fmt.Sprintf("tensor: BatchView index %d out of range for batch %d", b, t.Dim(0)))
	}
	per := t.Dim(1) * t.Dim(2) * t.Dim(3)
	return FromSlice(t.Data[b*per:(b+1)*per], 1, t.Dim(1), t.Dim(2), t.Dim(3))
}

// SplitBatch copies each image of a 4-D batch tensor into its own
// [1, C, H, W] tensor. Unlike BatchView the results own their data, so
// the batch buffer may be recycled while callers keep using them.
func SplitBatch(t *Tensor) []*Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: SplitBatch requires a 4-D tensor, got %v", t.Shape()))
	}
	out := make([]*Tensor, t.Dim(0))
	for b := range out {
		out[b] = t.BatchView(b).Clone()
	}
	return out
}

// SplitBatchArena is SplitBatch drawing each per-image tensor from an
// arena instead of the heap (nil arena falls back to SplitBatch).
// Callers that return the tensors via arena.Put once done make the
// batched heads path reuse warm buffers in steady state.
func SplitBatchArena(t *Tensor, arena *Arena) []*Tensor {
	if arena == nil {
		return SplitBatch(t)
	}
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: SplitBatchArena requires a 4-D tensor, got %v", t.Shape()))
	}
	per := t.Dim(1) * t.Dim(2) * t.Dim(3)
	out := make([]*Tensor, t.Dim(0))
	for b := range out {
		img := arena.Get(1, t.Dim(1), t.Dim(2), t.Dim(3))
		copy(img.Data, t.Data[b*per:(b+1)*per])
		out[b] = img
	}
	return out
}
