package main

import (
	"runtime"
	"time"

	"rtoss/internal/core"
	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/models"
	"rtoss/internal/nn"
	"rtoss/internal/prune"
	"rtoss/internal/tensor"
)

const (
	yoloRes      = 160 // model input of the YOLO workloads
	tinyRes      = 128 // model input of the routed tiny detector
	rtossEntries = 3   // R-TOSS entry patterns the YOLO weights are pruned with
)

// yolo is the pruned YOLOv5s detector compiled for one dispatch mode.
type yolo struct {
	model  *nn.Model
	prog   *engine.Program
	pipe   detect.Config
	pruned *prune.Result

	pruneS, compileS float64
}

// newYOLO builds YOLOv5s (8 KITTI classes), prunes it with R-TOSS and
// compiles it — the model part of every YOLO workload's set-up.
func newYOLO(mode engine.Mode) (*yolo, error) {
	y := &yolo{model: models.YOLOv5s(models.KITTIClasses)}
	t0 := time.Now()
	var err error
	if y.pruned, err = core.NewVariant(rtossEntries).Prune(y.model); err != nil {
		return nil, err
	}
	y.pruneS = time.Since(t0).Seconds()
	t0 = time.Now()
	if y.prog, err = engine.Compile(y.model, engine.Options{Mode: mode}); err != nil {
		return nil, err
	}
	y.compileS = time.Since(t0).Seconds()
	spec, err := models.HeadByName("YOLOv5s", models.KITTIClasses)
	if err != nil {
		return nil, err
	}
	y.pipe = detect.Config{Spec: spec}
	return y, nil
}

// repeatSetup runs a workload's set-up reps times and returns every
// duration in seconds; the caller reports their median. Each build's
// product is torn down and collected before the next, so that the
// repeats do not pile up in the run's peak memory; the last one is left
// standing for the run.
func repeatSetup(reps int, build func() (teardown func(), err error)) ([]float64, func(), error) {
	var times []float64
	var teardown func()
	for len(times) < reps {
		if teardown != nil {
			teardown()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if teardown, err = build(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, teardown, nil
}

// setupReps is how often a run sets up. An untraced run reports the
// median: of 3 set-ups of the YOLO model, which take a fifth of a second
// each, and of 25 of the tiny fleet, which take tens of milliseconds.
// A traced run reports no set-up time and sets up once.
func setupReps(workload string, trace bool) int {
	switch {
	case trace:
		return 1
	case workload == wRoutedHTTP:
		return 25
	}
	return 3
}

// stageNames are the four calls an image passes through in process,
// the lowest rung of every span ladder.
var stageNames = [4]string{"tensor.decode", "tensor.letterbox", "engine.heads", "detect.post"}

// stages runs the in-process pipeline by calling each layer's exported
// function directly, keeping its buffers between images as the serving
// path does.
type stages struct {
	prog *engine.Program
	pipe detect.Config
	res  int

	img, canvas *tensor.Tensor
	dets        []detect.Detection
}

// stageRun is one image's outcome: the detections (valid until the next
// run), the postprocess counters and the four stage durations.
type stageRun struct {
	dets []detect.Detection
	post detect.PostStats
	d    [4]time.Duration
}

func (s *stages) run(data []byte) (stageRun, error) {
	var out stageRun
	var err error
	t0 := time.Now()
	if s.img, err = tensor.DecodeImageInto(s.img, data); err != nil {
		return out, err
	}
	t1 := time.Now()
	var meta tensor.LetterboxMeta
	s.canvas, meta = tensor.LetterboxImageInto(s.canvas, s.img, s.res, s.res, tensor.LetterboxFill)
	t2 := time.Now()
	heads, err := s.prog.Heads(s.canvas.Reshape(1, s.canvas.Dim(0), s.canvas.Dim(1), s.canvas.Dim(2)))
	if err != nil {
		return out, err
	}
	t3 := time.Now()
	s.dets, out.post, err = detect.PostprocessStats(s.dets[:0], heads, meta, s.pipe)
	t4 := time.Now()
	out.dets = s.dets
	out.d = [4]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)}
	return out, err
}

func (sr stageRun) total() time.Duration { return sr.d[0] + sr.d[1] + sr.d[2] + sr.d[3] }

// recordStages adds the four stage spans under parent, back to back
// from start.
func recordStages(rec *recorder, parent, req int, start time.Time, d [4]time.Duration, rebased bool) {
	for i, name := range stageNames {
		rec.add(name, parent, req, start, d[i], rebased)
		start = start.Add(d[i])
	}
}

// timingStages orders the stage times a call reported about itself like
// stageNames.
func timingStages(t detect.Timing) [4]time.Duration {
	return [4]time.Duration{t.Ingest, t.Preprocess, t.Forward, t.Decode}
}
