package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rtoss/internal/nn"
	"rtoss/internal/tensor"
)

// Forward runs the model on input (shape [N, InputC, H, W]) and returns
// every layer's output tensor, indexed by layer ID. H/W may differ from
// the model's nominal resolution as long as every conv output stays
// non-empty. Because every output is retained, Forward cannot recycle
// activation buffers; use Output when only the final tensor matters.
func (p *Program) Forward(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	return p.run(input, true, nil)
}

// Output runs the model and returns the final layer's tensor.
// Intermediate activations are recycled through a pooled per-run arena
// as soon as their last consumer has executed, so repeated calls reuse
// warm buffers instead of re-allocating them.
func (p *Program) Output(input *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := p.run(input, false, nil)
	if err != nil {
		return nil, err
	}
	return outs[len(outs)-1], nil
}

// Heads runs the model and returns the detection-head tensors feeding
// the model's Detect sink, in the sink's input order (for YOLOv5s the
// P3/P4/P5 prediction maps; for RetinaNet the classification and
// regression maps). Intermediate activations are recycled like Output;
// the returned tensors are caller-owned. It errors if the model has no
// Detect layer.
func (p *Program) Heads(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(p.headIDs) == 0 {
		return nil, fmt.Errorf("engine: model %q has no detection heads", p.model.Name)
	}
	outs, err := p.run(input, false, p.headIDs)
	if err != nil {
		return nil, err
	}
	heads := make([]*tensor.Tensor, len(p.headIDs))
	for i, id := range p.headIDs {
		heads[i] = outs[id]
	}
	return heads, nil
}

// HeadsBatch stacks the inputs into one batch, runs the model once, and
// returns each image's detection-head tensors: result[i][h] is head h
// of image i, each a caller-owned [1, C, H, W] tensor. Every input must
// be a single image ([C, H, W] or [1, C, H, W]) of identical shape.
// Results match len(inputs) independent Heads calls up to
// floating-point summation order; batched convolutions are additionally
// split across the worker pool, so one batched pass beats N sequential
// single-image passes. The batch-sized head buffers are split into
// per-image copies and returned to the run's arena, so steady-state
// serving reuses them across batches.
func (p *Program) HeadsBatch(inputs []*tensor.Tensor) (heads [][]*tensor.Tensor, err error) {
	return p.HeadsBatchArena(inputs, nil)
}

// HeadsBatchArena is HeadsBatch drawing the per-image head copies from
// dst instead of the heap (nil dst behaves exactly like HeadsBatch).
// A serving executor passes a long-lived arena and returns each head
// tensor via dst.Put after postprocessing, so steady-state detect
// batches recycle warm head buffers instead of allocating
// heads×batch tensors per forward.
func (p *Program) HeadsBatchArena(inputs []*tensor.Tensor, dst *tensor.Arena) (heads [][]*tensor.Tensor, err error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("engine: HeadsBatch of no inputs")
	}
	if len(p.headIDs) == 0 {
		return nil, fmt.Errorf("engine: model %q has no detection heads", p.model.Name)
	}
	defer func() {
		if r := recover(); r != nil {
			heads, err = nil, fmt.Errorf("engine: HeadsBatch: %v", r)
		}
	}()
	batch := tensor.Stack(inputs)
	heads = make([][]*tensor.Tensor, len(inputs))
	for i := range heads {
		heads[i] = make([]*tensor.Tensor, len(p.headIDs))
	}
	_, err = p.runFinish(batch, false, p.headIDs, func(outs []*tensor.Tensor, arena *tensor.Arena) {
		for h, id := range p.headIDs {
			for i, img := range tensor.SplitBatchArena(outs[id], dst) {
				heads[i][h] = img
			}
			arena.Put(outs[id])
		}
	})
	if err != nil {
		return nil, err
	}
	return heads, nil
}

// runCtx is the per-run execution context: the input, the output table,
// and (for buffer-recycling runs) the pooled runState.
type runCtx struct {
	p     *Program
	input *tensor.Tensor
	outs  []*tensor.Tensor
	// splitBatch enables splitting a batched convolution across the
	// worker pool. It is set only while executing a single-layer
	// wavefront level, where the level scheduler leaves the pool idle —
	// on wider levels the layers themselves fill the workers, and
	// nesting a second pool per conv would oversubscribe the CPUs.
	splitBatch bool
	// rs is nil when retaining all outputs; otherwise it holds the
	// arena the buffers come from, refs counts the remaining consumers
	// of each layer's output, owned marks outputs whose buffers came
	// from the arena, and alias maps pass-through outputs (Detect) to
	// the layer that owns the buffer.
	rs *runState
}

func (p *Program) run(input *tensor.Tensor, retainAll bool, keep []int) ([]*tensor.Tensor, error) {
	return p.runFinish(input, retainAll, keep, nil)
}

// runFinish is run with a completion hook: on success, finish (if
// non-nil, and the run recycles buffers) is invoked while the per-run
// state is still held, so batch callers can copy kept outputs and Put
// their buffers back into the arena before it returns to the pool.
func (p *Program) runFinish(input *tensor.Tensor, retainAll bool, keep []int, finish func(outs []*tensor.Tensor, arena *tensor.Arena)) ([]*tensor.Tensor, error) {
	if input.Rank() != 4 {
		return nil, fmt.Errorf("engine: input must be 4-D, got %v", input.Shape())
	}
	if input.Dim(1) != p.model.InputC {
		return nil, fmt.Errorf("engine: input has %d channels, model wants %d", input.Dim(1), p.model.InputC)
	}
	n := len(p.model.Layers)
	rc := &runCtx{p: p, input: input, outs: make([]*tensor.Tensor, n)}
	if !retainAll {
		rc.rs = p.acquireRun(keep)
		defer p.releaseRun(rc.rs)
	}
	for _, lvl := range p.levels {
		if p.workers <= 1 || len(lvl) == 1 {
			rc.splitBatch = p.workers > 1
			for _, id := range lvl {
				if err := rc.exec(id); err != nil {
					return nil, err
				}
			}
			continue
		}
		rc.splitBatch = false
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		sem := make(chan struct{}, p.workers)
		for _, id := range lvl {
			wg.Add(1)
			sem <- struct{}{}
			go func(id int) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := rc.exec(id); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(id)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	if finish != nil && rc.rs != nil {
		finish(rc.outs, rc.rs.arena)
	}
	return rc.outs, nil
}

// get allocates a layer output buffer, from the arena when recycling.
// It is the engine's sanctioned arena plumbing: the buffer it hands out
// is tracked by the run's refcounts and returned via consume, with the
// Heads keep-list exempting the outputs that survive the run.
//
//rtoss:arena-owner
func (rc *runCtx) get(shape ...int) *tensor.Tensor {
	if rc.rs != nil {
		return rc.rs.arena.Get(shape...)
	}
	return tensor.New(shape...)
}

// consume retires one reference to layer id's output, recycling its
// buffer once the last consumer is done. Aliased outputs forward the
// release to the owning layer.
func (rc *runCtx) consume(id int) {
	if atomic.AddInt32(&rc.rs.refs[id], -1) != 0 {
		return
	}
	if a := rc.rs.alias[id]; a >= 0 {
		rc.consume(int(a))
		return
	}
	if rc.rs.owned[id] {
		rc.rs.arena.Put(rc.outs[id])
		rc.outs[id] = nil
	}
}

// exec runs one layer. Kernel panics (shape mismatches, empty outputs)
// are recovered into errors so a failing worker cannot crash the pool.
func (rc *runCtx) exec(id int) (err error) {
	l := rc.p.model.Layers[id]
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: layer %q: %v", l.Name, r)
		}
	}()
	in := func(i int) *tensor.Tensor { return rc.outs[l.Inputs[i]] }
	var out *tensor.Tensor
	owned := true
	aliasOf := -1
	switch l.Kind {
	case nn.Input:
		out, owned = rc.input, false
	case nn.Conv:
		out = rc.conv(l, in(0))
	case nn.BatchNorm:
		out = rc.batchNorm(in(0), l.Gamma, l.Beta)
	case nn.Act:
		out = rc.activate(in(0), l.Act)
	case nn.MaxPool:
		t := in(0)
		oh := tensor.ConvOut(t.Dim(2), l.PoolK, l.PoolStride, l.PoolPad)
		ow := tensor.ConvOut(t.Dim(3), l.PoolK, l.PoolStride, l.PoolPad)
		out = rc.get(t.Dim(0), t.Dim(1), oh, ow)
		tensor.MaxPool2DInto(out, t, l.PoolK, l.PoolStride, l.PoolPad)
	case nn.Upsample:
		t := in(0)
		scale := l.Scale
		if scale == 0 {
			scale = 2
		}
		if scale < 1 {
			return fmt.Errorf("engine: upsample layer %q has invalid scale %d", l.Name, l.Scale)
		}
		out = rc.get(t.Dim(0), t.Dim(1), scale*t.Dim(2), scale*t.Dim(3))
		tensor.UpsampleNearestInto(out, t, scale)
	case nn.Concat:
		ts := make([]*tensor.Tensor, len(l.Inputs))
		total := 0
		for i := range l.Inputs {
			ts[i] = in(i)
			total += ts[i].Dim(1)
		}
		out = rc.get(ts[0].Dim(0), total, ts[0].Dim(2), ts[0].Dim(3))
		tensor.ConcatChannelsInto(out, ts...)
	case nn.Add:
		first := in(0)
		out = rc.get(first.Shape()...)
		copy(out.Data, first.Data)
		for i := 1; i < len(l.Inputs); i++ {
			out.Add(in(i))
		}
	case nn.GlobalPool:
		out = rc.globalAvgPool(in(0))
	case nn.Linear:
		out, err = rc.linear(in(0), l)
		if err != nil {
			return err
		}
	case nn.Detect:
		// Sink node: expose the first head's output. The buffer stays
		// owned by the producing layer (alias), so its release waits
		// for this output's own consumers.
		out, owned, aliasOf = in(0), false, l.Inputs[0]
	default:
		return fmt.Errorf("engine: unsupported layer kind %v", l.Kind)
	}
	rc.outs[id] = out
	if rc.rs != nil {
		rc.rs.owned[id] = owned
		rc.rs.alias[id] = int32(aliasOf)
		for i, p := range l.Inputs {
			if i == 0 && aliasOf >= 0 {
				continue // reference transferred to the alias
			}
			rc.consume(p)
		}
	}
	return nil
}

// conv dispatches one convolution to the compiled sparse kernel or the
// dense path, splitting batched inputs across the worker pool.
func (rc *runCtx) conv(l *nn.Layer, t *tensor.Tensor) *tensor.Tensor {
	oh := tensor.ConvOut(t.Dim(2), l.KH, l.Stride, l.Pad)
	ow := tensor.ConvOut(t.Dim(3), l.KW, l.Stride, l.Pad)
	out := rc.get(t.Dim(0), l.OutC, oh, ow)
	if n := t.Dim(0); n > 1 && rc.splitBatch {
		rc.convBatched(l, t, out, n)
		return out
	}
	rc.convInto(l, t, out)
	return out
}

// convInto runs the compiled (or dense) kernel for one conv layer.
func (rc *runCtx) convInto(l *nn.Layer, t, out *tensor.Tensor) {
	switch cc := rc.p.compiled[l.ID]; {
	case cc != nil && cc.Pattern != nil:
		tensor.Conv2DPatternInto(out, t, cc.Pattern, l.Bias, l.Stride, l.Pad, l.Group)
	case cc != nil && cc.CSR != nil:
		tensor.Conv2DCSRInto(out, t, cc.CSR, l.Bias, l.Stride, l.Pad, l.Group)
	default:
		tensor.Conv2DInto(out, t, l.Weight, l.Bias, l.Stride, l.Pad, l.Group)
	}
}

// convBatched splits a batched convolution across up to workers
// goroutines, one batch image at a time (NCHW images are contiguous, so
// each goroutine runs the single-image kernel on a zero-copy view).
// Worker panics are re-raised in the caller so exec's recover converts
// them into errors.
func (rc *runCtx) convBatched(l *nn.Layer, t, out *tensor.Tensor, n int) {
	workers := rc.p.workers
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		next     = int32(-1)
		panicMu  sync.Mutex
		panicVal any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				b := int(atomic.AddInt32(&next, 1))
				if b >= n {
					return
				}
				rc.convInto(l, t.BatchView(b), out.BatchView(b))
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

func (rc *runCtx) batchNorm(t *tensor.Tensor, gamma, beta []float32) *tensor.Tensor {
	n, c, h, w := t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)
	out := rc.get(n, c, h, w)
	hw := h * w
	for b := 0; b < n; b++ {
		for ic := 0; ic < c; ic++ {
			g, be := gamma[ic], beta[ic]
			src := t.Data[(b*c+ic)*hw : (b*c+ic+1)*hw]
			dst := out.Data[(b*c+ic)*hw : (b*c+ic+1)*hw]
			for i, v := range src {
				dst[i] = g*v + be
			}
		}
	}
	return out
}

func (rc *runCtx) activate(t *tensor.Tensor, act nn.Activation) *tensor.Tensor {
	out := rc.get(t.Shape()...)
	for i, v := range t.Data {
		out.Data[i] = applyAct(v, act)
	}
	return out
}

func (rc *runCtx) globalAvgPool(t *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)
	out := rc.get(n, c, 1, 1)
	hw := h * w
	for b := 0; b < n; b++ {
		for ic := 0; ic < c; ic++ {
			sum := 0.0
			for _, v := range t.Data[(b*c+ic)*hw : (b*c+ic+1)*hw] {
				sum += float64(v)
			}
			out.Data[b*c+ic] = float32(sum / float64(hw))
		}
	}
	return out
}

func (rc *runCtx) linear(t *tensor.Tensor, l *nn.Layer) (*tensor.Tensor, error) {
	n := t.Dim(0)
	flat := t.Dim(1) * t.Dim(2) * t.Dim(3)
	if flat != l.InF {
		return nil, fmt.Errorf("engine: linear %q expects %d features, got %d", l.Name, l.InF, flat)
	}
	out := rc.get(n, l.OutF, 1, 1)
	for b := 0; b < n; b++ {
		for o := 0; o < l.OutF; o++ {
			acc := float32(0)
			if l.LinB != nil {
				acc = l.LinB[o]
			}
			row := l.LinW.Data[o*l.InF : (o+1)*l.InF]
			for i := 0; i < flat; i++ {
				acc += row[i] * t.Data[b*flat+i]
			}
			out.Data[b*l.OutF+o] = acc
		}
	}
	return out, nil
}
