package main

import (
	"fmt"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
)

// frame.go is the two closed-loop, single-client frame workloads: the
// same pruned YOLOv5s, the same in-process pipeline, dispatched sparse
// or dense. Nothing of serve, stream or fleet runs.

const parityTol = 1e-4

// runFrame measures one frame workload for r.Seconds, or makes its
// traced pass.
func runFrame(r *runResult, mode engine.Mode, outDir string) error {
	ins, err := frameInputs(r.Seed)
	if err != nil {
		return err
	}
	var y *yolo
	setupS, _, err := repeatSetup(setupReps(r.Workload, r.Trace), func() (func(), error) {
		var err error
		y, err = newYOLO(mode)
		return func() {}, err
	})
	if err != nil {
		return err
	}
	st := &stages{prog: y.prog, pipe: y.pipe, res: yoloRes}
	// ref keeps each scene's first detections: a later pass over the
	// same bytes must reproduce them bit for bit.
	ref := make([][]detect.Detection, len(ins))
	var lat []float64
	var runs []stageRun
	frame := func(rec *recorder, i int, timed bool) {
		k := i % len(ins)
		t0 := time.Now()
		sr, err := st.run(ins[k].Data)
		d := time.Since(t0)
		if timed {
			r.Attempted++
		}
		if err != nil {
			r.fail(1, "frame %d: %v", i, err)
			return
		}
		recordStages(rec, rec.add("frame", -1, i, t0, d, false), i, t0, sr.d, false)
		if ref[k] == nil {
			ref[k] = append([]detect.Detection(nil), sr.dets...)
		} else if !boxesEqual(ref[k], sr.dets) {
			r.fail(1, "frame %d: scene %d gave different boxes than its first pass", i, k)
		}
		if timed {
			lat = append(lat, msOf(d))
		}
		if rec != nil {
			sr.dets = nil // the buffer is reused by the next frame
			runs = append(runs, sr)
		}
	}

	warm := 4
	if mode == engine.ModeDense {
		warm = 1
	}
	t0 := time.Now()
	for i := 0; i < warm; i++ {
		frame(nil, i, false)
	}
	perFrame := time.Since(t0) / time.Duration(warm)
	r.Counts["warmup_frames"] = warm

	if !r.Trace {
		u := measure(func() {
			deadline := time.Now().Add(r.share(1))
			for i := warm; time.Now().Before(deadline); i++ {
				frame(nil, i, true)
			}
		})
		r.Counts["timed_frames"] = len(lat)
		if err := frameParity(r, y, ins, ref); err != nil {
			return err
		}
		r.emitEndToEnd(setupS, lat, len(lat), u, y.prog.MemoryBytes())
		return nil
	}

	// Traced pass: the same number of frames without and with spans,
	// each phase about a quarter of the run length.
	n := max(2, int(r.Seconds/4/perFrame.Seconds()))
	for i := 0; i < n; i++ {
		frame(nil, warm+i, true)
	}
	untraced := append([]float64(nil), lat...)
	lat = nil
	rec := newRecorder()
	for i := 0; i < n; i++ {
		frame(rec, warm+n+i, true)
	}
	r.Counts["traced_frames"] = n
	r.emit("trace.overhead_pct", 100*(median(lat)-median(untraced))/median(untraced), n)

	forwardMS := stageReport(r, runs)
	in := st.canvas.Reshape(1, 3, yoloRes, yoloRes)
	layers, err := yoloReport(r, y, in, forwardMS)
	if err != nil {
		return err
	}
	if err := ingestReport(r, ins[0], yoloRes); err != nil {
		return err
	}
	// The measured counterpart of hw.modelled_speedup: the same weights
	// and input through the other dispatch mode.
	otherMode, otherReps, otherWarm := engine.ModeDense, 2, 0
	if mode == engine.ModeDense {
		otherMode, otherReps, otherWarm = engine.ModeSparse, replayReps, 1
	}
	other, err := engine.Compile(y.model, engine.Options{Mode: otherMode})
	if err != nil {
		return err
	}
	otherMS, err := timeCalls(otherReps, otherWarm, func() error {
		_, err := other.Heads(in)
		return err
	})
	if err != nil {
		return err
	}
	speedup := median(otherMS) / forwardMS
	if mode == engine.ModeDense {
		speedup = 1 / speedup
	}
	r.emit("hw.measured_speedup", speedup, otherReps)
	return writeTrace(outDir, r, rec, layers)
}

// frameParity checks sparse against dense on the same frames: the
// sparse workload re-runs its first scene densely, the dense workload
// (whose frames are the expensive ones) re-runs up to four of the
// scenes it saw sparsely.
func frameParity(r *runResult, y *yolo, ins []input, ref [][]detect.Detection) error {
	otherMode, scenes := engine.ModeDense, 1
	if y.prog.Mode() == engine.ModeDense {
		otherMode, scenes = engine.ModeSparse, 4
	}
	other, err := engine.Compile(y.model, engine.Options{Mode: otherMode})
	if err != nil {
		return err
	}
	st := &stages{prog: other, pipe: y.pipe, res: yoloRes}
	for k := 0; k < scenes && ref[k] != nil; k++ {
		r.Attempted++
		sr, err := st.run(ins[k].Data)
		if err != nil {
			return fmt.Errorf("parity frame %d: %w", k, err)
		}
		checkParity(r, k, ref[k], sr.dets)
		r.Counts["parity_frames"]++
	}
	return nil
}

// checkParity holds one scene's sparse and dense detections together.
func checkParity(r *runResult, scene int, a, b []detect.Detection) {
	if !boxesClose(a, b, parityTol) {
		r.fail(1, "scene %d: sparse and dense boxes differ (%d vs %d boxes, tolerance %g)", scene, len(a), len(b), parityTol)
	}
}
