// Command rtoss is the CLI front end of the pruning framework:
//
//	rtoss census              kernel-size census of the zoo models
//	rtoss prune [flags]       prune a model and report the accounting
//	rtoss platforms           show the analytic platform models
//	rtoss compare [flags]     full framework comparison on one model
//	rtoss tradeoff [flags]    sparsity/accuracy/latency sweeps
//	rtoss forward [flags]     run the real execution engine (-engine=dense|sparse|auto)
//	rtoss detect [flags]      end-to-end detection: image in, JSON boxes out
//	rtoss serve [flags]       serve a compiled model over HTTP with micro-batching
//	rtoss eval [flags]        mAP + latency over the synthetic-KITTI set, via any backend
//	rtoss stream [flags]      streaming eval: deadline-hit-rate + mAP over rendered videos
//	rtoss route [flags]       consistent-hash failover router over N serve shards
//	rtoss loadtest [flags]    closed-loop /detect load generator with tail-latency report
//	rtoss chaos [flags]       seeded fault-injection run against an in-process fleet
//
// Run any subcommand with -h for its flags.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rtoss"
	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/experiments"
	"rtoss/internal/kitti"
	"rtoss/internal/models"
	"rtoss/internal/report"
	"rtoss/internal/rng"
	"rtoss/internal/serve"
	"rtoss/internal/stream"
	"rtoss/internal/tensor"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "census":
		err = census()
	case "prune":
		err = pruneCmd(os.Args[2:])
	case "platforms":
		err = platforms()
	case "compare":
		err = compare(os.Args[2:])
	case "tradeoff":
		err = tradeoff(os.Args[2:])
	case "forward":
		err = forward(os.Args[2:])
	case "detect":
		err = detectCmd(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "eval":
		err = evalCmd(os.Args[2:])
	case "stream":
		err = streamCmd(os.Args[2:])
	case "route":
		err = routeCmd(os.Args[2:])
	case "loadtest":
		err = loadtestCmd(os.Args[2:])
	case "chaos":
		err = chaosCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rtoss: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtoss:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Println("usage: rtoss <census|prune|platforms|compare|tradeoff|forward|detect|serve|eval|stream|route|loadtest|chaos> [flags]")
}

// evalCmd scores the detection stack with the real mAP evaluator over
// a deterministic synthetic-KITTI scene set. The accuracy section of
// the report is bitwise-identical across backends and engine modes for
// a fixed seed — `-backend=http -mode=sparse` must reproduce
// `-backend=inprocess -mode=dense` exactly.
func evalCmd(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	modelName := fs.String("model", "yolov5s", "model to evaluate (yolov5s|retinanet)")
	variant := fs.String("variant", "rtoss-3ep", "pruning variant (dense|rtoss-2ep..rtoss-5ep)")
	engineMode := fs.String("mode", "sparse", "kernel dispatch: dense|sparse|auto")
	fs.StringVar(engineMode, "engine", "sparse", "alias of -mode (matches forward/detect/serve)")
	backend := fs.String("backend", "inprocess", "pipeline backend: inprocess|server|http|oracle")
	urlFlag := fs.String("url", "", "score an externally running /detect server (http backend; empty = self-host)")
	scenes := fs.Int("scenes", 8, "synthetic-KITTI scene count")
	seed := fs.Uint64("seed", 1, "scene-set generation seed")
	res := fs.Int("res", 256, "model input resolution (letterboxed; multiple of the head stride)")
	conc := fs.Int("concurrency", 1, "images in flight at once")
	score := fs.Float64("score", 0.25, "confidence threshold in (0, 1]")
	iou := fs.Float64("iou", 0.45, "NMS IoU threshold in (0, 1]")
	evalIoU := fs.Float64("eval-iou", 0.5, "mAP matching IoU threshold")
	exact := fs.Bool("exact", false, "decode with exact float64 math instead of the fast float32 path")
	jsonPath := fs.String("json", "", "also write the report to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := zooName(*modelName)
	if err != nil {
		return err
	}
	mode, err := rtoss.ParseEngineMode(*engineMode)
	if err != nil {
		return err
	}
	rep, err := rtoss.Eval(rtoss.EvalConfig{
		Scenes: *scenes, Seed: *seed,
		Arch: arch, Variant: *variant, Mode: mode, Res: *res,
		Detect:  detect.Config{ScoreThreshold: *score, IoUThreshold: *iou, ExactMath: *exact},
		Backend: *backend, URL: *urlFlag,
		Concurrency: *conc, EvalIoU: *evalIoU,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if *jsonPath != "" {
		if err := rep.WriteJSON(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

// streamCmd replays deterministic moving-scene videos through the
// streaming subsystem (sessions -> deadline-aware scheduler -> batch
// executors) and reports timeliness alongside accuracy. With -golden
// it instead regenerates the committed sample motion frames under
// examples/data (run from the repository root).
func streamCmd(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	modelName := fs.String("model", "yolov5s", "model to evaluate (yolov5s|retinanet)")
	variant := fs.String("variant", "rtoss-3ep", "pruning variant (dense|rtoss-2ep..rtoss-5ep)")
	engineMode := fs.String("mode", "sparse", "kernel dispatch: dense|sparse|auto")
	fs.StringVar(engineMode, "engine", "sparse", "alias of -mode (matches forward/detect/serve)")
	streams := fs.Int("streams", 2, "concurrent video sessions")
	frames := fs.Int("frames", 30, "frames per stream")
	fps := fs.Float64("fps", 30, "per-stream frame rate (paced mode)")
	budgetMS := fs.Float64("budget-ms", 0, "per-frame deadline budget in ms (0 = 4 frame intervals, <0 = no deadline)")
	lockstep := fs.Bool("lockstep", false, "push each frame only after the previous resolved (drop-free parity mode)")
	seed := fs.Uint64("seed", 1, "video generation seed (stream i renders seed+i)")
	sceneW := fs.Int("scene-w", 320, "rendered frame width")
	sceneH := fs.Int("scene-h", 192, "rendered frame height")
	res := fs.Int("res", 256, "model input resolution (letterboxed; multiple of the head stride)")
	score := fs.Float64("score", 0.25, "confidence threshold in (0, 1]")
	iou := fs.Float64("iou", 0.45, "NMS IoU threshold in (0, 1]")
	evalIoU := fs.Float64("eval-iou", 0.5, "mAP matching IoU threshold")
	exact := fs.Bool("exact", false, "decode with exact float64 math instead of the fast float32 path")
	jsonPath := fs.String("json", "", "also write the report to this JSON file")
	golden := fs.Bool("golden", false, "regenerate examples/data/kitti_motion_NN.ppm and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *golden {
		return regenMotionGoldens()
	}
	arch, err := zooName(*modelName)
	if err != nil {
		return err
	}
	mode, err := rtoss.ParseEngineMode(*engineMode)
	if err != nil {
		return err
	}
	budget := time.Duration(*budgetMS * float64(time.Millisecond))
	if *budgetMS < 0 {
		budget = -1
	}
	rep, err := rtoss.EvalStream(rtoss.StreamEvalConfig{
		Streams: *streams, Frames: *frames, FPS: *fps,
		Budget: budget, Lockstep: *lockstep,
		Seed: *seed, SceneW: *sceneW, SceneH: *sceneH,
		Arch: arch, Variant: *variant, Mode: mode, Res: *res,
		Detect:  detect.Config{ScoreThreshold: *score, IoUThreshold: *iou, ExactMath: *exact},
		EvalIoU: *evalIoU,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if *jsonPath != "" {
		if err := rep.WriteJSON(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

// regenMotionGoldens rewrites the committed sample motion frames that
// TestMotionSequenceMatchesGoldenFrames byte-compares against.
func regenMotionGoldens() error {
	const goldenFrames = 4
	seq := kitti.RenderedSequence(kitti.SampleMotionSeed, goldenFrames, 160, 96)
	for i, rs := range seq {
		path := filepath.Join("examples", "data", fmt.Sprintf("kitti_motion_%02d.ppm", i))
		var buf bytes.Buffer
		if err := tensor.EncodePPM(&buf, rs.Image); err != nil {
			return err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, buf.Len())
	}
	return nil
}

// zooName maps a CLI model flag to its zoo display name.
func zooName(cli string) (string, error) {
	switch cli {
	case "yolov5s":
		return "YOLOv5s", nil
	case "retinanet":
		return "RetinaNet", nil
	}
	return "", fmt.Errorf("unknown model %q (yolov5s|retinanet)", cli)
}

// serveCmd compiles one model variant through the serving registry and
// exposes it over HTTP with the micro-batching scheduler.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	modelName := fs.String("model", "yolov5s", "model to serve (yolov5s|retinanet)")
	variant := fs.String("variant", "rtoss-3ep", "pruning variant (dense|rtoss-2ep..rtoss-5ep)")
	engineMode := fs.String("engine", "sparse", "kernel dispatch: dense|sparse|auto")
	res := fs.Int("res", 64, "letterbox resolution (HxW) of /detect and /stream images")
	maxBatch := fs.Int("max-batch", 8, "max images coalesced into one forward")
	maxDelay := fs.Duration("max-delay", 2*time.Millisecond, "max wait for a fuller batch")
	workers := fs.Int("workers", 2, "concurrent batch executors")
	queue := fs.Int("queue", 64, "pending request queue bound")
	shed := fs.Bool("shed", false, "reject with 503 when the queue is full instead of blocking")
	exact := fs.Bool("exact", false, "/detect decodes with exact float64 math instead of the fast float32 path")
	budget := fs.Duration("budget", 0, "default per-frame deadline budget for /stream sessions (0 = no deadline)")
	memBudget := fs.Int64("mem-budget", 0, "max bytes of cached Programs before LRU eviction (0 = unlimited)")
	warmFrom := fs.String("warm-from", "", "peer base URL to fetch a warm Program snapshot from before cold building")
	watchdog := fs.Duration("watchdog", 0, "stuck-batch watchdog allowance: a batch exceeding it is answered with 503 (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := zooName(*modelName)
	if err != nil {
		return err
	}
	mode, err := rtoss.ParseEngineMode(*engineMode)
	if err != nil {
		return err
	}
	// Validate the cheap flag-derived config before the multi-second
	// prune+compile.
	spec, err := models.HeadByName(arch, models.KITTIClasses)
	if err != nil {
		return err
	}
	if s := spec.MaxStride(); *res <= 0 || *res%s != 0 {
		return fmt.Errorf("-res %d must be a positive multiple of the %s head stride %d", *res, arch, s)
	}
	key := serve.Key{Arch: arch, Variant: *variant, Mode: mode}
	reg := serve.NewRegistry()
	if *memBudget > 0 {
		reg.SetBudget(*memBudget)
	}
	start := time.Now()
	var prog *engine.Program
	if *warmFrom != "" {
		// Warm handoff: skip the multi-second prune by installing the
		// peer's snapshot; fall back to a cold build if the peer is
		// down or doesn't have the key yet.
		fmt.Printf("fetching %v snapshot from %s ...\n", key, *warmFrom)
		if snap, err := serve.FetchSnapshot(context.Background(), *warmFrom, key, 0); err != nil {
			fmt.Printf("warm handoff unavailable (%v); cold building\n", err)
		} else if prog, err = reg.Install(key, snap); err != nil {
			return err
		}
	}
	if prog == nil {
		fmt.Printf("compiling %v ...\n", key)
		if prog, err = reg.Program(key); err != nil {
			return err
		}
	}
	p, c := prog.SparseLayers()
	fmt.Printf("compiled in %.2fs (%d pattern-sparse layers, %d CSR layers)\n",
		time.Since(start).Seconds(), p, c)
	srv := serve.NewServer(prog, serve.Config{
		MaxBatch: *maxBatch, MaxDelay: *maxDelay, Workers: *workers, QueueCap: *queue,
		Watchdog: *watchdog,
	})
	defer srv.Close()
	hw := *res
	pipe := detect.Config{Spec: spec, ExactMath: *exact}
	hub := stream.NewHub(srv, stream.Config{Pipe: pipe, ResH: hw, ResW: hw, Budget: *budget})
	defer hub.Close()
	fmt.Printf("serving on http://%s\n", *addr)
	fmt.Printf("  POST /detect  PPM/PGM/PNG/JPEG image -> JSON detections\n")
	fmt.Printf("  POST /stream  MJPEG multipart or length-prefixed frame sequence -> JSON summary\n")
	fmt.Printf("  GET  /stats, /healthz, /program (warm-handoff snapshot)\n")
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(srv, serve.HandlerConfig{
		InputH: hw, InputW: hw,
		Detect:      pipe,
		Labels:      kitti.ClassNames[:],
		ShedLoad:    *shed,
		ExtraStats:  hub.StatsMap,
		SnapshotKey: &key,
	}))
	mux.Handle("POST /stream", hub.Handler())
	// Drain order on SIGTERM/SIGINT: stop accepting, close the stream
	// sessions, drain the batch queue, then evict the registry through
	// its OnEvict path.
	return serveGracefully(*addr, mux, hub.Close, srv.Close, reg.Close)
}

// forward runs the real execution engine on a (optionally pruned) model
// and reports wall-clock per pass, comparing the selected engine mode
// against the dense baseline.
func forward(args []string) error {
	fs := flag.NewFlagSet("forward", flag.ExitOnError)
	modelName := fs.String("model", "yolov5s", "model to run (yolov5s|retinanet)")
	engineMode := fs.String("engine", "auto", "kernel dispatch: dense|sparse|auto")
	entries := fs.Int("entries", 3, "R-TOSS entry patterns to prune with first (0 = leave dense)")
	res := fs.Int("res", 64, "input resolution (HxW)")
	runs := fs.Int("runs", 3, "timed passes per engine (best is reported)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := rtoss.ParseEngineMode(*engineMode)
	if err != nil {
		return err
	}
	if *runs < 1 {
		*runs = 1
	}
	m, err := buildModel(*modelName)
	if err != nil {
		return err
	}
	if *entries > 0 {
		fw, err := rtoss.NewRTOSSWithConfig(rtoss.RTOSSConfig{
			Entries: *entries, UseDFSGrouping: true, Transform1x1: true,
		})
		if err != nil {
			return err
		}
		if _, err := fw.Prune(m); err != nil {
			return err
		}
		fmt.Printf("pruned with R-TOSS (%dEP): %.2f%% sparsity\n", *entries, 100*m.Sparsity())
	}
	in := rtoss.NewTensor(1, 3, *res, *res)
	r := rng.New(7)
	for i := range in.Data {
		in.Data[i] = float32(r.Range(-1, 1))
	}

	timeEngine := func(mode rtoss.EngineMode) (float64, *rtoss.Tensor, error) {
		e, err := rtoss.CompileProgram(m, rtoss.EngineOptions{Mode: mode, Workers: *workers})
		if err != nil {
			return 0, nil, err
		}
		if mode != rtoss.EngineDense {
			p, c := e.SparseLayers()
			fmt.Printf("%-7s engine: %d pattern-sparse layers, %d CSR layers\n", mode, p, c)
		}
		return experiments.MeasureForward(e, in, *runs)
	}

	t, out, err := timeEngine(mode)
	if err != nil {
		return err
	}
	fmt.Printf("%-7s engine: %.2f ms/pass (%d runs, %dx%d input, output %v)\n",
		mode, t*1e3, *runs, *res, *res, out.Shape())
	if mode == rtoss.EngineDense {
		return nil
	}
	td, outDense, err := timeEngine(rtoss.EngineDense)
	if err != nil {
		return err
	}
	var maxDiff float64
	for i := range out.Data {
		d := float64(out.Data[i] - outDense.Data[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("%-7s engine: %.2f ms/pass\n", rtoss.EngineDense, td*1e3)
	fmt.Printf("measured speedup: %.2fx (max abs output diff %.2g)\n", td/t, maxDiff)
	return nil
}

// detectCmd runs the full detection pipeline on one image and prints
// the boxes as JSON: letterbox preprocess, (optionally pruned) sparse
// forward pass, head decode, class-aware NMS, un-letterbox.
func detectCmd(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	modelName := fs.String("model", "yolov5s", "model to run (yolov5s|retinanet)")
	engineMode := fs.String("engine", "sparse", "kernel dispatch: dense|sparse|auto")
	entries := fs.Int("entries", 3, "R-TOSS entry patterns to prune with first (0 = leave dense)")
	res := fs.Int("res", 256, "model input resolution (letterboxed; multiple of 32)")
	imagePath := fs.String("image", "", "image to run (PPM/PGM/PNG/JPEG; empty = bundled synthetic KITTI sample)")
	score := fs.Float64("score", 0.25, "confidence threshold in (0, 1] (0 = default)")
	iou := fs.Float64("iou", 0.45, "NMS IoU threshold in (0, 1] (0 = default)")
	maxDet := fs.Int("max", 100, "max detections in the output")
	exact := fs.Bool("exact", false, "decode with exact float64 math instead of the fast float32 path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := rtoss.ParseEngineMode(*engineMode)
	if err != nil {
		return err
	}
	m, err := buildModel(*modelName)
	if err != nil {
		return err
	}
	variant := "dense"
	if *entries > 0 {
		fw, err := rtoss.NewRTOSSWithConfig(rtoss.RTOSSConfig{
			Entries: *entries, UseDFSGrouping: true, Transform1x1: true,
		})
		if err != nil {
			return err
		}
		if _, err := fw.Prune(m); err != nil {
			return err
		}
		variant = fmt.Sprintf("rtoss-%dep", *entries)
	}
	prog, err := rtoss.CompileProgram(m, rtoss.EngineOptions{Mode: mode})
	if err != nil {
		return err
	}
	det, err := rtoss.NewDetector(prog, *res, rtoss.DetectConfig{
		ScoreThreshold: *score, IoUThreshold: *iou, MaxDetections: *maxDet,
		ExactMath: *exact,
	})
	if err != nil {
		return err
	}
	// A file runs through DetectBytes so the decode (ingest) stage is
	// timed like a served request; the synthetic sample is rendered
	// directly as a tensor, so its ingest is legitimately zero.
	var result *rtoss.DetectResult
	source := "synthetic-kitti-sample"
	if *imagePath != "" {
		data, err := os.ReadFile(*imagePath)
		if err != nil {
			return err
		}
		source = *imagePath
		if result, err = det.DetectBytes(data); err != nil {
			return fmt.Errorf("%s: %w", *imagePath, err)
		}
	} else {
		var err error
		if result, err = det.Detect(rtoss.KITTISampleImage(496, 160)); err != nil {
			return err
		}
	}
	labels := rtoss.KITTIClassNames()
	type detJSON struct {
		Box   [4]float64 `json:"box"`
		Class int        `json:"class"`
		Label string     `json:"label,omitempty"`
		Score float64    `json:"score"`
	}
	out := struct {
		Model      string             `json:"model"`
		Variant    string             `json:"variant"`
		Engine     string             `json:"engine"`
		Image      string             `json:"image"`
		ImageSize  [2]int             `json:"image_size"`
		InputRes   int                `json:"input_res"`
		Count      int                `json:"count"`
		Detections []detJSON          `json:"detections"`
		TimingMS   map[string]float64 `json:"timing_ms"`
	}{
		Model: m.Name, Variant: variant, Engine: mode.String(),
		Image: source, ImageSize: [2]int{result.SrcW, result.SrcH}, InputRes: *res,
		Count: len(result.Detections),
		TimingMS: map[string]float64{
			"ingest":     float64(result.Timing.Ingest) / 1e6,
			"preprocess": float64(result.Timing.Preprocess) / 1e6,
			"forward":    float64(result.Timing.Forward) / 1e6,
			"decode":     float64(result.Timing.Decode) / 1e6,
			"total":      float64(result.Timing.Total()) / 1e6,
		},
	}
	for _, d := range result.Detections {
		dj := detJSON{
			Box:   [4]float64{d.Box.X1, d.Box.Y1, d.Box.X2, d.Box.Y2},
			Class: d.Class,
			Score: d.Score,
		}
		if d.Class >= 0 && d.Class < len(labels) {
			dj.Label = labels[d.Class]
		}
		out.Detections = append(out.Detections, dj)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func buildModel(name string) (*rtoss.Model, error) {
	switch name {
	case "yolov5s":
		return rtoss.NewYOLOv5s(), nil
	case "retinanet":
		return rtoss.NewRetinaNet(), nil
	default:
		return nil, fmt.Errorf("unknown model %q (yolov5s|retinanet)", name)
	}
}

func census() error {
	t := &report.Table{
		Title:   "Model zoo census",
		Headers: []string{"Model", "Params (M)", "MACs (G)", "Conv layers", "1x1 share", "Modules"},
	}
	for _, m := range models.Table2Models() {
		macs, err := m.MACs()
		if err != nil {
			return err
		}
		t.AddRow(m.Name,
			fmt.Sprintf("%.2f", float64(m.Params())/1e6),
			fmt.Sprintf("%.2f", float64(macs)/1e9),
			len(m.ConvLayers()),
			fmt.Sprintf("%.2f%%", 100*models.Frac1x1Layers(m)),
			models.ModuleCount(m))
	}
	fmt.Print(t.Render())
	return nil
}

func pruneCmd(args []string) error {
	fs := flag.NewFlagSet("prune", flag.ExitOnError)
	modelName := fs.String("model", "yolov5s", "model to prune (yolov5s|retinanet)")
	entries := fs.Int("entries", 3, "entry pattern count (2|3|4|5)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := buildModel(*modelName)
	if err != nil {
		return err
	}
	orig := m.Clone()
	fw, err := rtoss.NewRTOSSWithConfig(rtoss.RTOSSConfig{
		Entries: *entries, UseDFSGrouping: true, Transform1x1: true,
	})
	if err != nil {
		return err
	}
	res, err := fw.Prune(m)
	if err != nil {
		return err
	}
	q := rtoss.Assess(orig, m, res)
	enc := rtoss.Encode(m, res.Structure)
	fmt.Printf("%s on %s\n", fw.Name(), m.Name)
	fmt.Printf("  groups:            %d\n", res.Groups)
	fmt.Printf("  best-fit searches: %d (inherited %d kernels via DFS grouping)\n",
		res.BestFitSearches, res.InheritedKernels)
	fmt.Printf("  distinct patterns: %d\n", res.DistinctPatterns())
	fmt.Printf("  sparsity:          %.2f%%\n", 100*res.Sparsity())
	fmt.Printf("  compression:       %.2fx (params), %.2fx (encoded bytes)\n",
		res.CompressionRatio(), enc.CompressionRatio())
	fmt.Printf("  surrogate mAP:     %.2f (baseline %.2f)\n", q.MAP, rtoss.Assess(orig, orig, nil).MAP)
	for _, p := range []rtoss.Platform{rtoss.RTX2080Ti(), rtoss.JetsonTX2()} {
		base, err := rtoss.Estimate(orig, p, rtoss.Dense)
		if err != nil {
			return err
		}
		c, err := rtoss.Estimate(m, p, res.Structure)
		if err != nil {
			return err
		}
		fmt.Printf("  %-11s %.2f ms (%.2fx speedup), %.3f J (%.1f%% energy saved)\n",
			p.Name+":", c.Time*1e3, c.Speedup(base), c.Energy, 100*c.EnergyReduction(base))
	}
	return nil
}

func platforms() error {
	t := &report.Table{
		Title:   "Analytic platform models",
		Headers: []string{"Platform", "Dense GMAC/s", "Pattern gain", "Layer overhead", "Static W", "pJ/MAC"},
	}
	for _, p := range []rtoss.Platform{rtoss.RTX2080Ti(), rtoss.JetsonTX2()} {
		t.AddRow(p.Name,
			fmt.Sprintf("%.1f", p.DenseThroughput/1e9),
			fmt.Sprintf("%.2f", p.PatternGain),
			fmt.Sprintf("%.0f us", p.LayerOverhead*1e6),
			fmt.Sprintf("%.1f", p.StaticPower),
			fmt.Sprintf("%.1f", p.EnergyPerMAC*1e12))
	}
	fmt.Print(t.Render())
	return nil
}

func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	modelName := fs.String("model", "yolov5s", "model (yolov5s|retinanet)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var zooName string
	switch *modelName {
	case "yolov5s":
		zooName = "YOLOv5s"
	case "retinanet":
		zooName = "RetinaNet"
	default:
		return fmt.Errorf("unknown model %q", *modelName)
	}
	rs, err := rtoss.RunFrameworks(zooName)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title: "Framework comparison on " + zooName,
		Headers: []string{"Framework", "Compression", "mAP", "GPU ms", "GPU speedup",
			"TX2 ms", "TX2 speedup", "TX2 energy J", "Measured ms", "Measured speedup"},
	}
	for _, r := range rs {
		t.AddRow(r.Framework,
			fmt.Sprintf("%.2fx", r.Compression),
			fmt.Sprintf("%.2f", r.MAP),
			fmt.Sprintf("%.2f", r.TimeGPU*1e3),
			fmt.Sprintf("%.2fx", r.SpeedupGPU),
			fmt.Sprintf("%.0f", r.TimeTX2*1e3),
			fmt.Sprintf("%.2fx", r.SpeedupTX2),
			fmt.Sprintf("%.2f", r.EnergyTX2),
			fmt.Sprintf("%.1f", r.MeasuredSparse*1e3),
			fmt.Sprintf("%.2fx", r.MeasuredSpeedup))
	}
	fmt.Print(t.Render())
	return nil
}

func tradeoff(args []string) error {
	fs := flag.NewFlagSet("tradeoff", flag.ExitOnError)
	modelName := fs.String("model", "yolov5s", "model (yolov5s|retinanet)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var zooName string
	switch *modelName {
	case "yolov5s":
		zooName = "YOLOv5s"
	case "retinanet":
		zooName = "RetinaNet"
	default:
		return fmt.Errorf("unknown model %q", *modelName)
	}
	rt, err := rtoss.RTOSSTradeoff(zooName)
	if err != nil {
		return err
	}
	fmt.Print(rt.Render())
	nms, err := rtoss.NMSTradeoff(zooName, []float64{0.5, 0.6, 0.7, 0.8, 0.9})
	if err != nil {
		return err
	}
	fmt.Print(nms.Render())
	pd, err := rtoss.PDTradeoff(zooName, []float64{0, 0.15, 0.3, 0.45, 0.6})
	if err != nil {
		return err
	}
	fmt.Print(pd.Render())
	return nil
}
