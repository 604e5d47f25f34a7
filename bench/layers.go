package main

import (
	"fmt"
	"sort"
	"time"

	"rtoss/internal/engine"
	"rtoss/internal/hw"
	"rtoss/internal/nn"
	"rtoss/internal/prune"
	"rtoss/internal/sparse"
	"rtoss/internal/tensor"
)

// layers.go looks below engine.heads without touching the engine: one
// Program.Forward yields every layer's real input, and each conv and
// pooling layer's kernel is then called directly on that input — the
// kernel replay. It also times the ingest functions and the engine's
// batched forward, which no workload calls on their own.

const replayReps = 3

// layerTrace is one row of the per-layer table in the trace file.
type layerTrace struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Kernel     string  `json:"kernel"` // pattern, csr, dense or maxpool
	OutShape   []int   `json:"out_shape"`
	DenseMACs  int64   `json:"dense_macs"`
	ExecMACs   int64   `json:"exec_macs"` // non-zero weights x output positions
	MS         float64 `json:"ms"`        // median of replayReps direct kernel calls
	GMACs      float64 `json:"gmac_per_s"`
	BytesMoved int64   `json:"bytes_moved"` // input + output + weight payload, from tensor sizes
	// ModelledMS is hw.Estimate(JetsonTX2)'s TotalTime for the layer at
	// the model's nominal resolution: comparable in rank, not in scale.
	ModelledMS float64 `json:"modelled_ms"`
	Allocs     uint64  `json:"allocs,omitempty"` // maxpool rows
}

// replayKernels times every conv and max-pool layer of y's program on
// the activations a real forward of in produces, and reports the tensor
// kernel roll-ups, sparse.compile_s and the hw comparison. It returns
// the table and the summed conv time in ms.
func replayKernels(r *runResult, y *yolo, in *tensor.Tensor) ([]layerTrace, float64, error) {
	outs, err := y.prog.Forward(in)
	if err != nil {
		return nil, 0, err
	}
	structure := prune.Dense
	if y.prog.Mode() != engine.ModeDense {
		structure = y.pruned.Structure
	}
	est, err := hw.Estimate(y.model, hw.JetsonTX2(), structure)
	if err != nil {
		return nil, 0, err
	}
	dict := sparse.DefaultPatternDict()
	var rows []layerTrace
	var compileS float64
	for _, l := range y.model.Layers {
		if l.Kind != nn.Conv && l.Kind != nn.MaxPool {
			continue
		}
		x, out := outs[l.Inputs[0]], tensor.New(outs[l.ID].Shape()...)
		row := layerTrace{ID: l.ID, Name: l.Name, OutShape: out.Shape(), ModelledMS: est.Layers[l.ID].TotalTime * 1e3}
		positions := int64(out.Dim(0) * out.Dim(2) * out.Dim(3))
		var call func()
		var weightBytes int
		if l.Kind == nn.MaxPool {
			row.Kernel = "maxpool"
			call = func() { tensor.MaxPool2DInto(out, x, l.PoolK, l.PoolStride, l.PoolPad) }
			row.Allocs = mallocsOf(call)
		} else {
			var cc *sparse.CompiledConv
			if y.prog.Mode() != engine.ModeDense {
				t0 := time.Now()
				cc = sparse.CompileConv(l, dict, 1)
				compileS += time.Since(t0).Seconds()
			}
			row.DenseMACs = l.MACs(out.Dim(2), out.Dim(3))
			switch {
			case cc != nil && cc.Pattern != nil:
				pc := cc.Pattern
				row.Kernel, row.ExecMACs = "pattern", int64(pc.NNZ())*positions
				weightBytes = len(pc.Index) + 4*len(pc.ValPtr) + 4*len(pc.Values)
				call = func() { tensor.Conv2DPatternInto(out, x, pc, l.Bias, l.Stride, l.Pad, l.Group) }
			case cc != nil && cc.CSR != nil:
				cs := cc.CSR
				row.Kernel, row.ExecMACs = "csr", int64(cs.NNZ())*positions
				weightBytes = 4 * (len(cs.RowPtr) + len(cs.ColIdx) + len(cs.Values))
				call = func() { tensor.Conv2DCSRInto(out, x, cs, l.Bias, l.Stride, l.Pad, l.Group) }
			default:
				row.Kernel, row.ExecMACs = "dense", row.DenseMACs
				weightBytes = 4 * l.Weight.Len()
				call = func() { tensor.Conv2DInto(out, x, l.Weight, l.Bias, l.Stride, l.Pad, l.Group) }
			}
		}
		var ms []float64
		for i := 0; i < replayReps; i++ {
			t0 := time.Now()
			call()
			ms = append(ms, msOf(time.Since(t0)))
		}
		row.MS = median(ms)
		row.BytesMoved = int64(4*(x.Len()+out.Len()) + weightBytes)
		if row.MS > 0 {
			row.GMACs = float64(row.ExecMACs) / row.MS / 1e6
		}
		rows = append(rows, row)
	}

	type agg struct {
		ms     float64
		macs   int64
		layers int
	}
	by := map[string]*agg{"pattern": {}, "csr": {}, "dense": {}, "maxpool": {}}
	var convMS, modelled []float64
	var execMACs, denseMACs, bytesMoved int64
	var poolAllocs uint64
	for _, row := range rows {
		a := by[row.Kernel]
		a.ms, a.macs, a.layers = a.ms+row.MS, a.macs+row.ExecMACs, a.layers+1
		if row.Kernel == "maxpool" {
			poolAllocs += row.Allocs
			continue
		}
		convMS, modelled = append(convMS, row.MS), append(modelled, row.ModelledMS)
		execMACs, denseMACs, bytesMoved = execMACs+row.ExecMACs, denseMACs+row.DenseMACs, bytesMoved+row.BytesMoved
	}
	for _, k := range []string{"pattern", "csr", "dense"} {
		a := by[k]
		r.emit("tensor.conv_"+k+"_ms", a.ms, a.layers*replayReps)
		if a.ms > 0 {
			r.emit("tensor.conv_"+k+"_gmacs", float64(a.macs)/a.ms/1e6, a.layers*replayReps)
		}
	}
	total := sum(convMS)
	top := append([]float64(nil), convMS...)
	sort.Sort(sort.Reverse(sort.Float64Slice(top)))
	r.emit("tensor.conv_top5_share", sum(top[:min(5, len(top))])/total, len(top))
	r.emit("tensor.conv_exec_macs", float64(execMACs), 0)
	r.emit("tensor.conv_dense_macs", float64(denseMACs), 0)
	r.emit("tensor.conv_bytes_moved", float64(bytesMoved), 0)
	r.emit("tensor.maxpool_ms", by["maxpool"].ms, by["maxpool"].layers*replayReps)
	r.emit("tensor.maxpool_allocs", float64(poolAllocs), by["maxpool"].layers)
	r.emit("sparse.compile_s", compileS, 1)
	r.emit("hw.layer_time_corr", spearman(modelled, convMS), len(convMS))
	r.Counts["replayed_conv_layers"] = len(convMS)
	return rows, total, nil
}

// modelReport reports what pruning and lowering did to the model: the
// core and sparse roll-ups and the analytic speed-up hw predicts.
func modelReport(r *runResult, y *yolo) error {
	r.emit("core.prune_s", y.pruneS, 1)
	r.emit("core.sparsity", 1-float64(y.pruned.NNZAfter())/float64(y.pruned.TotalWeights()), 0)
	r.emit("engine.compile_s", y.compileS, 1)
	tx2 := hw.JetsonTX2()
	dense, err := hw.Estimate(y.model, tx2, prune.Dense)
	if err != nil {
		return err
	}
	pruned, err := hw.Estimate(y.model, tx2, y.pruned.Structure)
	if err != nil {
		return err
	}
	r.emit("hw.modelled_speedup", pruned.Speedup(dense), 0)
	if y.prog.Mode() == engine.ModeDense {
		return nil
	}
	p, c := y.prog.SparseLayers()
	r.emit("sparse.pattern_layers", float64(p), 0)
	r.emit("sparse.csr_layers", float64(c), 0)
	enc := sparse.EncodeModel(y.model, y.pruned.Structure, sparse.DefaultPatternDict())
	r.emit("sparse.encoded_mb", float64(enc.Bytes)/1e6, 0)
	r.emit("sparse.compression_x", enc.CompressionRatio(), 0)
	return nil
}

// yoloReport makes the model-level part of a YOLO workload's traced
// pass: what pruning and lowering produced, the engine calls no
// workload makes alone, and the kernel replay. in is a letterboxed
// model input, forwardMS the single-image forward the caller measured
// through the workload's own program. It returns the per-layer table.
func yoloReport(r *runResult, y *yolo, in *tensor.Tensor, forwardMS float64) ([]layerTrace, error) {
	if err := modelReport(r, y); err != nil {
		return nil, err
	}
	// A dense forward takes seconds, so it is repeated less.
	reps, warm := replayReps, 1
	if y.prog.Mode() == engine.ModeDense {
		reps, warm = 1, 0
	}
	if err := batchReport(r, y.prog, in, forwardMS, reps, warm); err != nil {
		return nil, err
	}
	// The replay calls kernels one after another, while the program
	// runs the layers of one wavefront level side by side. The forward
	// that the replay is held against therefore runs on one worker.
	serial, err := engine.Compile(y.model, engine.Options{Mode: y.prog.Mode(), Workers: 1})
	if err != nil {
		return nil, err
	}
	serialMS, err := timeCalls(reps, warm, func() error {
		_, err := serial.Heads(in)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.emitTimes("engine.forward_serial_ms", serialMS)
	layers, convMS, err := replayKernels(r, y, in)
	if err != nil {
		return nil, err
	}
	r.emit("engine.nonconv_ms", median(serialMS)-convMS, len(serialMS))
	return layers, nil
}

// batchReport times a two-image batched forward, which is what serve's
// micro-batching runs, against forwardMS, the single-image forward the
// caller measured, and counts the allocations of one forward.
func batchReport(r *runResult, prog *engine.Program, in *tensor.Tensor, forwardMS float64, reps, warm int) error {
	batch2, err := timeCalls(reps, warm, func() error {
		_, err := prog.HeadsBatch([]*tensor.Tensor{in, in})
		return err
	})
	if err != nil {
		return fmt.Errorf("batched forward: %w", err)
	}
	r.emitTimes("engine.forward_batch2_ms", batch2)
	r.emit("engine.batch2_scaling", 2*forwardMS/median(batch2), len(batch2))
	r.emit("engine.allocs_per_forward", float64(mallocsOf(func() { _, err = prog.Heads(in) })), 1)
	return err
}

// timeCalls calls f warm times untimed, then reps times, and returns
// the timed durations in ms.
func timeCalls(reps, warm int, f func() error) ([]float64, error) {
	var ms []float64
	for i := -warm; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		if i >= 0 {
			ms = append(ms, msOf(time.Since(t0)))
		}
	}
	return ms, nil
}

// ingestReport times the byte-to-canvas functions on one source image
// in each codec, and counts their steady-state allocations.
func ingestReport(r *runResult, src input, res int) error {
	const reps = 5
	img, err := tensor.DecodeImageInto(nil, src.Data)
	if err != nil {
		return err
	}
	var scratch, canvas *tensor.Tensor
	var allocs uint64
	for _, codec := range []string{"ppm", "png", "jpeg"} {
		data, err := encode(img, codec)
		if err != nil {
			return err
		}
		var ms []float64
		for i := 0; i <= reps; i++ { // the first fills the buffers, untimed
			t0 := time.Now()
			if scratch, err = tensor.DecodeImageInto(scratch, data); err != nil {
				return err
			}
			if i > 0 {
				ms = append(ms, msOf(time.Since(t0)))
			}
		}
		r.emitTimes("tensor.decode_"+codec+"_ms", ms)
		canvas, _ = tensor.LetterboxImageInto(canvas, scratch, res, res, tensor.LetterboxFill)
		allocs += mallocsOf(func() {
			scratch, _ = tensor.DecodeImageInto(scratch, data)
			canvas, _ = tensor.LetterboxImageInto(canvas, scratch, res, res, tensor.LetterboxFill)
		})
	}
	var ms []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		canvas, _ = tensor.LetterboxImageInto(canvas, scratch, res, res, tensor.LetterboxFill)
		ms = append(ms, msOf(time.Since(t0)))
	}
	r.emitTimes("tensor.letterbox_ms", ms)
	r.emit("tensor.ingest_allocs", float64(allocs)/3, 3)
	return nil
}

// stageReport reports the in-process stage timings gathered from the
// lowest rung of a traced pass: forward, postprocess and its split.
func stageReport(r *runResult, runs []stageRun) (forwardMS float64) {
	var fwd, post, dec, nms []float64
	var cands, kept int
	for _, sr := range runs {
		fwd = append(fwd, msOf(sr.d[2]))
		post = append(post, msOf(sr.d[3]))
		dec = append(dec, msOf(sr.post.Decode))
		nms = append(nms, msOf(sr.post.NMS))
		cands += sr.post.Candidates
		kept += sr.post.Kept
	}
	n := float64(max(len(runs), 1))
	r.emitTimes("engine.forward_ms", fwd)
	r.emitTimes("detect.post_ms", post)
	r.emitTimes("detect.decode_ms", dec)
	r.emitTimes("detect.nms_ms", nms)
	r.emit("detect.candidates_per_image", float64(cands)/n, len(runs))
	r.emit("detect.boxes_per_image", float64(kept)/n, len(runs))
	return median(fwd)
}
