package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/kitti"
	"rtoss/internal/metrics"
	"rtoss/internal/serve"
	"rtoss/internal/stream"
	"rtoss/internal/tensor"
)

// stream.go is the streaming half of the harness: instead of scoring a
// bag of independent images, it replays deterministic moving-scene
// videos (kitti.RenderedSequence) through stream sessions against a
// live serve.Server and scores BOTH accuracy and timeliness — mAP over
// the served frames, plus deadline-hit-rate and drop-rate per stream.
// Stream i draws its frames from seed Seed+i, so a run is fully
// reproducible: the same config replays the same videos.
//
// Two pacing modes:
//
//   - paced (default): each stream pushes at FPS against the wall
//     clock, exactly like a camera. Under load the newest-frame-wins
//     mailbox drops stale frames, serve's admission sheds frames whose
//     deadline passed, and the report shows both in the drop counters.
//   - Lockstep: the next frame is pushed only after the previous one
//     resolved. No pacing, no drops — the mode that makes served-frame
//     detections bitwise comparable with the single-shot backends,
//     isolating the streaming transport from the math.

// StreamConfig parameterises one streaming evaluation run.
type StreamConfig struct {
	// Streams is how many concurrent video sessions to replay
	// (default 2).
	Streams int
	// Frames is the length of each stream's video (default 30).
	Frames int
	// FPS is the per-stream frame rate in paced mode (default 30).
	FPS float64
	// Budget is the per-frame deadline budget (default 4 frame
	// intervals; <0 disables deadlines).
	Budget time.Duration
	// Lockstep pushes each frame only after the previous resolved —
	// drop-free, for parity testing against single-shot backends.
	Lockstep bool

	// Seed drives scene generation; stream i uses Seed+i (default 1).
	Seed uint64
	// SceneW, SceneH are the rendered frame dimensions (default
	// 320x192).
	SceneW, SceneH int

	// Arch, Variant, Mode, Res, Detect, Program mirror Config: they
	// select and tune the model under evaluation.
	Arch    string
	Variant string
	Mode    engine.Mode
	Res     int
	Detect  detect.Config
	Program *engine.Program

	// EvalIoU is the mAP matching threshold (default 0.5).
	EvalIoU float64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Streams <= 0 {
		c.Streams = 2
	}
	if c.Frames <= 0 {
		c.Frames = 30
	}
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SceneW <= 0 {
		c.SceneW = 320
	}
	if c.SceneH <= 0 {
		c.SceneH = 192
	}
	if c.Arch == "" {
		c.Arch = "YOLOv5s"
	}
	if c.Variant == "" {
		c.Variant = "rtoss-3ep"
	}
	if c.Res <= 0 {
		c.Res = 256
	}
	if c.EvalIoU <= 0 {
		c.EvalIoU = 0.5
	}
	if c.Budget == 0 {
		c.Budget = time.Duration(4 * float64(time.Second) / c.FPS)
	} else if c.Budget < 0 {
		c.Budget = 0 // explicit "no deadline"
	}
	c.Detect = c.Detect.WithDefaults()
	return c
}

// FrameOutcome records what happened to one pushed frame.
type FrameOutcome struct {
	Stream int  `json:"stream"`
	Frame  int  `json:"frame"`
	Served bool `json:"served"`
	OnTime bool `json:"on_time"`
	// Drop classifies an unserved frame: "stale", "deadline" or
	// "error"; empty for served frames.
	Drop string `json:"drop,omitempty"`
	// Detections are the served frame's boxes in source pixels (nil
	// when dropped). Excluded from JSON: the report carries scores,
	// not raw boxes.
	Detections []detect.Detection `json:"-"`
}

// StreamReport is the result of one streaming evaluation.
type StreamReport struct {
	Arch    string `json:"arch"`
	Variant string `json:"variant"`
	Mode    string `json:"mode"`

	Streams  int     `json:"streams"`
	Frames   int     `json:"frames_per_stream"`
	FPS      float64 `json:"fps"`
	BudgetMS float64 `json:"budget_ms"`
	Lockstep bool    `json:"lockstep"`
	Seed     uint64  `json:"seed"`
	EvalIoU  float64 `json:"eval_iou"`

	FramesIn        uint64  `json:"frames_in"`
	FramesServed    uint64  `json:"frames_served"`
	DroppedStale    uint64  `json:"dropped_stale"`
	DroppedDeadline uint64  `json:"dropped_deadline"`
	Errors          uint64  `json:"errors"`
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
	DropRate        float64 `json:"drop_rate"`
	AvgServeMS      float64 `json:"avg_serve_ms"`

	// MAP scores the served frames against their ground truth; dropped
	// frames contribute nothing (they are timeliness failures, already
	// priced into the hit rate, not accuracy failures).
	MAP        float64        `json:"map"`
	Objects    int            `json:"objects"`
	Detections int            `json:"detections"`
	Outcomes   []FrameOutcome `json:"-"`
}

// Render returns the report as aligned text (`rtoss stream` output).
func (r *StreamReport) Render() string {
	var b strings.Builder
	pacing := fmt.Sprintf("%.0f fps", r.FPS)
	if r.Lockstep {
		pacing = "lockstep"
	}
	deadline := fmt.Sprintf("budget %.0f ms", r.BudgetMS)
	if r.BudgetMS <= 0 {
		deadline = "no deadline"
	}
	fmt.Fprintf(&b, "stream eval %s/%s/%s: %d streams x %d frames (%s, %s, seed %d)\n",
		r.Arch, r.Variant, r.Mode, r.Streams, r.Frames, pacing, deadline, r.Seed)
	fmt.Fprintf(&b, "  frames: %d in, %d served, %d stale, %d deadline, %d errors\n",
		r.FramesIn, r.FramesServed, r.DroppedStale, r.DroppedDeadline, r.Errors)
	fmt.Fprintf(&b, "  deadline hit rate %.4f, drop rate %.4f, avg serve %.2f ms\n",
		r.DeadlineHitRate, r.DropRate, r.AvgServeMS)
	fmt.Fprintf(&b, "  mAP@%.2f = %.6f over served frames (%d objects, %d detections)\n",
		r.EvalIoU, r.MAP, r.Objects, r.Detections)
	return b.String()
}

// WriteJSON writes the report to a file as indented JSON.
func (r *StreamReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunStream replays Streams deterministic videos through stream
// sessions against one live server and scores accuracy and
// timeliness.
func RunStream(cfg StreamConfig) (*StreamReport, error) {
	cfg = cfg.withDefaults()
	spec, err := resolveSpec(Config{Detect: cfg.Detect, Arch: cfg.Arch})
	if err != nil {
		return nil, err
	}
	if s := spec.MaxStride(); cfg.Res%s != 0 {
		return nil, fmt.Errorf("eval: stream resolution %d must be a multiple of the head stride %d", cfg.Res, s)
	}
	cfg.Detect.Spec = spec
	prog, err := buildProgram(Config{Program: cfg.Program, Arch: cfg.Arch, Variant: cfg.Variant, Mode: cfg.Mode})
	if err != nil {
		return nil, err
	}

	// Render every stream's video and fix the canonical wire bytes up
	// front, so pacing measures serving, not rasterisation.
	videos := make([][]kitti.RenderedScene, cfg.Streams)
	frames := make([][][]byte, cfg.Streams)
	for i := range videos {
		videos[i] = kitti.RenderedSequence(cfg.Seed+uint64(i), cfg.Frames, cfg.SceneW, cfg.SceneH)
		frames[i] = make([][]byte, cfg.Frames)
		for k, rs := range videos[i] {
			var buf bytes.Buffer
			if err := tensor.EncodePPM(&buf, rs.Image); err != nil {
				return nil, fmt.Errorf("eval: encoding stream %d frame %d: %w", i, k, err)
			}
			frames[i][k] = buf.Bytes()
		}
	}

	srv := serve.NewServer(prog, serve.Config{})
	defer srv.Close()
	hub := stream.NewHub(srv, stream.Config{
		Pipe: cfg.Detect, ResH: cfg.Res, ResW: cfg.Res, Budget: cfg.Budget,
	})
	defer hub.Close()

	interval := time.Duration(float64(time.Second) / cfg.FPS)
	outcomes := make([][]FrameOutcome, cfg.Streams)
	errC := make(chan error, cfg.Streams)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Streams; i++ {
		outcomes[i] = make([]FrameOutcome, cfg.Frames)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errC <- runOneStream(hub, cfg, i, frames[i], outcomes[i], interval)
		}(i)
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		if err != nil {
			return nil, err
		}
	}
	return buildStreamReport(cfg, hub.Stats(), videos, outcomes), nil
}

// runOneStream replays one video through one session, recording every
// frame's outcome by its push sequence (seq k+1 = frame k).
func runOneStream(hub *stream.Hub, cfg StreamConfig, idx int, frames [][]byte, out []FrameOutcome, interval time.Duration) error {
	var mu sync.Mutex
	resolved := make(chan stream.Result, len(frames)+1)
	sess, err := hub.Open(stream.SessionConfig{OnResult: func(r stream.Result) {
		mu.Lock()
		k := int(r.Seq) - 1
		if k >= 0 && k < len(out) {
			o := &out[k]
			o.Stream = idx
			o.Frame = k
			switch {
			case r.Err == nil:
				o.Served = true
				o.OnTime = r.OnTime
				o.Detections = r.Det.Detections
			case r.Err == serve.ErrSuperseded:
				o.Drop = "stale"
			case r.Err == serve.ErrDeadline:
				o.Drop = "deadline"
			default:
				o.Drop = "error"
			}
		}
		mu.Unlock()
		resolved <- r
	}})
	if err != nil {
		return err
	}
	start := time.Now()
	for k, ppm := range frames {
		if !cfg.Lockstep {
			// Camera pacing: frame k is captured at start + k*interval.
			if wait := time.Until(start.Add(time.Duration(k) * interval)); wait > 0 {
				time.Sleep(wait)
			}
		}
		if err := sess.Push(ppm); err != nil {
			sess.Close()
			return fmt.Errorf("eval: stream %d frame %d: %w", idx, k, err)
		}
		if cfg.Lockstep {
			<-resolved // strictly one in flight: drop-free by construction
		}
	}
	sess.Close()
	return nil
}

// buildStreamReport aggregates counters and scores served frames.
func buildStreamReport(cfg StreamConfig, sum stream.Summary, videos [][]kitti.RenderedScene, outcomes [][]FrameOutcome) *StreamReport {
	rep := &StreamReport{
		Arch: cfg.Arch, Variant: cfg.Variant, Mode: cfg.Mode.String(),
		Streams: cfg.Streams, Frames: cfg.Frames, FPS: cfg.FPS,
		BudgetMS: float64(cfg.Budget) / float64(time.Millisecond),
		Lockstep: cfg.Lockstep, Seed: cfg.Seed, EvalIoU: cfg.EvalIoU,

		FramesIn:        sum.FramesIn,
		FramesServed:    sum.FramesServed,
		DroppedStale:    sum.DroppedStale,
		DroppedDeadline: sum.DroppedDeadline,
		Errors:          sum.Errors,
		DeadlineHitRate: sum.DeadlineHitRate,
		AvgServeMS:      sum.AvgServeMS,
	}
	if sum.FramesIn > 0 {
		rep.DropRate = float64(sum.DroppedStale+sum.DroppedDeadline) / float64(sum.FramesIn)
	}
	var samples []metrics.Sample
	for i, streamOutcomes := range outcomes {
		for k := range streamOutcomes {
			o := streamOutcomes[k]
			rep.Outcomes = append(rep.Outcomes, o)
			if !o.Served {
				continue
			}
			truth := videos[i][k].Scene.Truth
			samples = append(samples, metrics.Sample{Detections: o.Detections, Truth: truth})
			rep.Detections += len(o.Detections)
			for _, g := range truth {
				if !g.Difficult {
					rep.Objects++
				}
			}
		}
	}
	_, rep.MAP = metrics.Evaluate(samples, kitti.NumClasses, cfg.EvalIoU)
	return rep
}
