// Package rtoss is the public API of the R-TOSS reproduction: a
// semi-structured (pattern-based) pruning framework for real-time
// object detectors, after Balasubramaniam, Sunny and Pasricha,
// "R-TOSS: A Framework for Real-Time Object Detection using
// Semi-Structured Pruning" (DAC 2023).
//
// The library bundles everything the paper's evaluation needs:
//
//   - a model zoo with layer-faithful YOLOv5s and RetinaNet descriptors
//     (NewYOLOv5s, NewRetinaNet) and the Table 1/2 comparison models;
//   - the R-TOSS pruner (NewRTOSS) implementing DFS layer grouping,
//     3×3 kernel pattern pruning and the 1×1 kernel transformation,
//     plus five baseline pruning frameworks (Baselines);
//   - analytic RTX 2080Ti / Jetson TX2 platform models (Estimate) for
//     latency and energy, compressed weight formats (Encode), an
//     information-retention accuracy surrogate (Assess), and a
//     synthetic-KITTI detection pipeline with a real mAP evaluator;
//   - a sparsity-aware concurrent execution engine (CompileProgram) that
//     turns pattern sparsity into measured wall-clock speedups;
//   - an end-to-end detection pipeline (NewDetector): image decoding
//     (DecodeImage), letterbox preprocessing, head decoding and NMS,
//     with per-stage latency reporting;
//   - an accuracy-evaluation harness (Eval) scoring the full stack —
//     including the live HTTP serving path — with the real mAP
//     evaluator over a deterministic synthetic-KITTI scene set;
//   - the experiment harness regenerating every table and figure of
//     the paper (Table1..Table3, Fig4..Fig8).
//
// # Engine modes
//
// CompileProgram compiles a model for real execution in one of three
// kernel dispatch modes:
//
//   - EngineDense runs every layer with the dense convolution kernels,
//     whatever the weights look like — the baseline the paper argues
//     against (zeros are multiplied like any other weight);
//   - EngineSparse lowers every pruned layer to a sparse kernel: 3×3
//     pattern-pruned layers use the pattern-grouped fast path (only the
//     ≤k surviving taps per kernel are iterated, via the shared mask
//     dictionary), everything else falls back to compressed sparse
//     rows;
//   - EngineAuto (the default, also used by Forward) picks dense or
//     sparse per layer from the layer's recorded prune structure and
//     measured weight density, so unpruned models pay no indirection.
//
// Layers execute wavefront-parallel over the model DAG's topological
// levels on a bounded worker pool, and Program.Output recycles
// activation buffers through a per-run arena.
//
// # Compile once, run many
//
// The engine is split into an immutable Program (CompileProgram) and
// cheap pooled per-request run state: one Program safely serves any
// number of concurrent goroutines, and Program.HeadsBatch runs a whole
// batch of images through one forward pass. The serving subsystem
// builds on that split: NewServeRegistry caches one Program per
// (architecture, variant, mode) key, and NewServer coalesces concurrent
// detection requests into micro-batches with bounded queueing and
// latency/throughput stats (see `rtoss serve`).
//
// # Detection pipeline
//
// Detector closes the loop from image to boxes: letterbox resize onto
// the model canvas, forward pass to the detection heads
// (Program.Heads), YOLO/RetinaNet head decode, class-aware NMS, and
// un-letterboxing back to source pixels. Decoding runs a fast float32
// hot path — polynomial sigmoid (within FastSigmoidTolerance),
// raw-logit gating, pooled scratch, quickselect TopK, class-bucketed
// NMS — with exact float64 math available via DetectConfig.ExactMath.
// The serving stack exposes the same pipeline over HTTP as POST
// /detect (see `rtoss serve`): Server.Detect carries encoded image
// bytes through the micro-batch queue, so preprocess, the co-batched
// forward and the postprocess all amortize on the batch executors.
// `rtoss detect` runs the pipeline from the command line.
//
// Quick start:
//
//	m := rtoss.NewYOLOv5s()
//	res, _ := rtoss.NewRTOSS(3).Prune(m)
//	fmt.Printf("compression %.2fx\n", res.CompressionRatio())
//
//	prog, _ := rtoss.CompileProgram(m, rtoss.EngineOptions{Mode: rtoss.EngineSparse})
//	det, _ := rtoss.NewDetector(prog, 256, rtoss.DetectConfig{})
//	out, _ := det.Detect(rtoss.KITTISampleImage(496, 160))
//	for _, d := range out.Detections {
//		fmt.Println(rtoss.KITTIClassNames()[d.Class], d.Score, d.Box)
//	}
package rtoss

import (
	"fmt"
	"io"
	"time"

	"rtoss/internal/baselines"
	"rtoss/internal/core"
	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/eval"
	"rtoss/internal/experiments"
	"rtoss/internal/hw"
	"rtoss/internal/kitti"
	"rtoss/internal/metrics"
	"rtoss/internal/models"
	"rtoss/internal/nn"
	"rtoss/internal/pattern"
	"rtoss/internal/prune"
	"rtoss/internal/report"
	"rtoss/internal/serve"
	"rtoss/internal/sparse"
	"rtoss/internal/tensor"
)

// Core model/pruning types.
type (
	// Model is a network descriptor with real weight tensors.
	Model = nn.Model
	// Layer is one node of a model.
	Layer = nn.Layer
	// Pruner is a pruning framework (R-TOSS or a baseline).
	Pruner = prune.Pruner
	// Result is a pruning run's accounting.
	Result = prune.Result
	// Structure classifies induced sparsity.
	Structure = prune.Structure
	// Platform is an analytic execution target.
	Platform = hw.Platform
	// CostReport is an analytic latency/energy estimate.
	CostReport = hw.CostReport
	// Quality is the accuracy surrogate's assessment.
	Quality = metrics.Quality
	// Tensor is a dense float32 tensor.
	Tensor = tensor.Tensor
	// Mask is a 3×3 kernel pattern mask.
	Mask = pattern.Mask
	// Dictionary is a pattern dictionary.
	Dictionary = pattern.Dictionary
	// Scene is a synthetic KITTI frame.
	Scene = kitti.Scene
	// Detection is one detector output box.
	Detection = detect.Detection
	// Box is an axis-aligned box.
	Box = detect.Box
	// FrameworkResult is a full framework measurement.
	FrameworkResult = experiments.FrameworkResult
	// SensitivityRow is one Table 3 row.
	SensitivityRow = experiments.SensitivityRow
	// Table is a renderable result grid.
	Table = report.Table
	// ModelEncoding is a compressed-weight encoding summary.
	ModelEncoding = sparse.ModelEncoding
	// RTOSSConfig selects an R-TOSS variant and ablation switches.
	RTOSSConfig = core.Config
)

// Sparsity structures (re-exported).
const (
	Dense        = prune.Dense
	Unstructured = prune.Unstructured
	Pattern      = prune.Pattern
	Channel      = prune.Channel
	Filter       = prune.Filter
	Mixed        = prune.Mixed
)

// KITTIClasses is the KITTI class count used throughout the evaluation.
const KITTIClasses = models.KITTIClasses

// NewYOLOv5s returns the YOLOv5s descriptor (7.02 M params with KITTI
// classes) with deterministic synthetic weights.
func NewYOLOv5s() *Model { return models.YOLOv5s(models.KITTIClasses) }

// NewRetinaNet returns the RetinaNet-R50-FPN descriptor (36.49 M params
// with KITTI classes).
func NewRetinaNet() *Model { return models.RetinaNet(models.KITTIClasses) }

// Table2Models returns the six detectors of the paper's Table 2.
func Table2Models() []*Model { return models.Table2Models() }

// NewRTOSS returns the R-TOSS pruner with the given entry count
// (2 or 3 for the paper's variants; 4 and 5 for the sensitivity study).
// It panics on other counts; use NewRTOSSWithConfig for error handling.
func NewRTOSS(entries int) *core.Framework { return core.NewVariant(entries) }

// NewRTOSSWithConfig builds an R-TOSS pruner from an explicit config
// (ablation switches included).
func NewRTOSSWithConfig(cfg RTOSSConfig) (*core.Framework, error) { return core.New(cfg) }

// Baselines returns the five comparison frameworks: PatDNN, SparseML,
// Network Slimming, Pruning Filters, Neural Pruning.
func Baselines() []Pruner { return baselines.All() }

// RTX2080Ti returns the desktop GPU platform model.
func RTX2080Ti() Platform { return hw.RTX2080Ti() }

// JetsonTX2 returns the embedded platform model.
func JetsonTX2() Platform { return hw.JetsonTX2() }

// Estimate computes the analytic latency/energy of a (possibly pruned)
// model on a platform.
func Estimate(m *Model, p Platform, s Structure) (*CostReport, error) {
	return hw.Estimate(m, p, s)
}

// Assess scores a pruned model's accuracy with the information-
// retention surrogate (see docs/ARCHITECTURE.md §Substitutions and
// ablations for the substitution rationale).
func Assess(orig, pruned *Model, res *Result) Quality {
	return metrics.AssessPruned(orig, pruned, res)
}

// Program is a model compiled once for execution: per-layer
// dense/sparse kernel dispatch, wavefront scheduling levels and the
// activation buffer plan. Immutable and safe for concurrent use; run
// state is pooled internally. Program.HeadsBatch runs many images in
// one pass.
type Program = engine.Program

// EngineOptions configures CompileProgram.
type EngineOptions = engine.Options

// EngineMode selects the engine's kernel-dispatch policy.
type EngineMode = engine.Mode

// Engine dispatch modes (see the package comment).
const (
	EngineAuto   = engine.ModeAuto
	EngineDense  = engine.ModeDense
	EngineSparse = engine.ModeSparse
)

// CompileProgram compiles a model into an immutable, shareable Program.
// Recompile after pruning for the sparse dispatch to see the new zeros.
func CompileProgram(m *Model, opts EngineOptions) (*Program, error) {
	return engine.Compile(m, opts)
}

// ---------------------------------------------------------------------
// Serving subsystem (micro-batching inference over shared Programs).

type (
	// ServeKey identifies one servable model variant in a registry.
	ServeKey = serve.Key
	// ServeRegistry lazily prunes+compiles and caches one Program per key.
	ServeRegistry = serve.Registry
	// ServeConfig tunes a Server's micro-batching scheduler.
	ServeConfig = serve.Config
	// ServeStats is a server accounting snapshot.
	ServeStats = serve.Stats
	// Server coalesces concurrent requests into batched forwards.
	Server = serve.Server
)

// NewServeRegistry returns an empty Program registry.
func NewServeRegistry() *ServeRegistry { return serve.NewRegistry() }

// NewServer starts a micro-batching inference server over a shared
// Program; see ServeConfig for the knobs.
func NewServer(prog *Program, cfg ServeConfig) *Server { return serve.NewServer(prog, cfg) }

// ParseEngineMode parses "auto", "dense" or "sparse".
func ParseEngineMode(s string) (EngineMode, error) { return engine.ParseMode(s) }

// ---------------------------------------------------------------------
// End-to-end detection pipeline (image in, boxes out).

type (
	// DetectConfig tunes the post-network pipeline (thresholds, caps).
	DetectConfig = detect.Config
	// DetectResult is one Detect call's boxes + per-stage timing.
	DetectResult = detect.Result
	// DetectTiming is the preprocess/forward/decode latency breakdown.
	DetectTiming = detect.Timing
	// HeadSpec is a model's head-decode metadata (strides, anchors).
	HeadSpec = detect.HeadSpec
	// LetterboxMeta maps model-canvas coordinates to source pixels.
	LetterboxMeta = tensor.LetterboxMeta
)

// FastSigmoidTolerance is the documented accuracy bound of the fast
// float32 sigmoid the default decode path uses; set
// DetectConfig.ExactMath for bitwise float64 reference math instead.
const FastSigmoidTolerance = detect.FastSigmoidTolerance

// Detector runs the full image -> boxes pipeline over a compiled
// Program: letterbox preprocess to the model resolution, forward pass
// to the detection heads, head decode + class-aware NMS (the fast
// float32 path with pooled scratch; DetectConfig.ExactMath pins the
// float64 reference decoders), and un-letterboxing back to
// source-image pixels. A Detector is immutable after NewDetector and
// safe for concurrent use (the Program and the postprocess scratch
// pool per-run state internally).
type Detector struct {
	prog     *Program
	cfg      DetectConfig
	inH, inW int
}

// NewDetector wraps a compiled Program into an end-to-end Detector.
// res is the square model resolution images are letterboxed to (0 uses
// the model's nominal resolution; must be a multiple of the coarsest
// head stride). When cfg.Spec is unset it is looked up from the
// program's model name (YOLOv5s or RetinaNet).
func NewDetector(prog *Program, res int, cfg DetectConfig) (*Detector, error) {
	m := prog.Model()
	if len(cfg.Spec.Levels) == 0 {
		spec, err := models.HeadByName(m.Name, m.NumClasses)
		if err != nil {
			return nil, err
		}
		cfg.Spec = spec
	}
	cfg = cfg.WithDefaults()
	if res == 0 {
		res = m.InputH
	}
	if s := cfg.Spec.MaxStride(); res <= 0 || res%s != 0 {
		return nil, fmt.Errorf("rtoss: detector resolution %d must be a positive multiple of the head stride %d", res, s)
	}
	return &Detector{prog: prog, cfg: cfg, inH: res, inW: res}, nil
}

// InputSize returns the model resolution images are letterboxed to.
func (d *Detector) InputSize() (h, w int) { return d.inH, d.inW }

// Config returns the detector's effective pipeline configuration.
func (d *Detector) Config() DetectConfig { return d.cfg }

// Preprocess letterboxes an image ([C, H, W] or [1, C, H, W], values
// in [0, 1]) onto the detector's model canvas, returning the
// [1, C, res, res] network input and the coordinate mapping.
func (d *Detector) Preprocess(img *Tensor) (*Tensor, LetterboxMeta) {
	canvas, meta := tensor.LetterboxImage(img, d.inH, d.inW, tensor.LetterboxFill)
	return canvas.Reshape(1, canvas.Dim(0), canvas.Dim(1), canvas.Dim(2)), meta
}

// Detect runs the full pipeline on one image and returns the boxes in
// source-image pixel coordinates (descending score) with the per-stage
// latency breakdown.
func (d *Detector) Detect(img *Tensor) (*DetectResult, error) {
	t0 := time.Now()
	in, meta := d.Preprocess(img)
	t1 := time.Now()
	heads, err := d.prog.Heads(in)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	dets, err := detect.Postprocess(heads, meta, d.cfg)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	return &DetectResult{
		Detections: dets,
		SrcW:       meta.SrcW,
		SrcH:       meta.SrcH,
		Timing: DetectTiming{
			Preprocess: t1.Sub(t0),
			Forward:    t2.Sub(t1),
			Decode:     t3.Sub(t2),
		},
	}, nil
}

// DetectBytes runs the full pipeline on an encoded image (PPM/PGM, PNG
// or baseline JPEG bytes — the same formats the /detect endpoint
// accepts), reporting the decode stage as Timing.Ingest. This is the
// in-process equivalent of one served /detect request.
func (d *Detector) DetectBytes(img []byte) (*DetectResult, error) {
	t0 := time.Now()
	decoded, err := tensor.DecodeImageInto(nil, img)
	if err != nil {
		return nil, err
	}
	ingest := time.Since(t0)
	res, err := d.Detect(decoded)
	if err != nil {
		return nil, err
	}
	res.Timing.Ingest = ingest
	return res, nil
}

// ---------------------------------------------------------------------
// Evaluation harness (mAP over the synthetic-KITTI set, any backend).

type (
	// EvalConfig parameterises one accuracy-evaluation run.
	EvalConfig = eval.Config
	// EvalReport is one evaluation run's scored outcome.
	EvalReport = eval.Report
	// EvalClassAP is one class's AP row in an EvalReport.
	EvalClassAP = eval.ClassAP
	// EvalLatency is an EvalReport's latency distribution summary.
	EvalLatency = eval.LatencySummary
)

// Evaluation backends (EvalConfig.Backend).
const (
	// EvalInProcess runs the pipeline directly on the compiled Program.
	EvalInProcess = eval.BackendInProcess
	// EvalServer drives a micro-batching Server in process.
	EvalServer = eval.BackendServer
	// EvalHTTP POSTs every image to a /detect endpoint (self-hosted on
	// a loopback port unless EvalConfig.URL names a running server).
	EvalHTTP = eval.BackendHTTP
	// EvalOracle scores ground-truth-encoded heads through the
	// post-network pipeline: the geometry-regression gate.
	EvalOracle = eval.BackendOracle
)

// Eval scores the detection stack against the paper's accuracy
// methodology: generate a deterministic synthetic-KITTI scene set,
// drive every image through the configured backend (in-process
// pipeline, micro-batching server, or real HTTP /detect round trips),
// and evaluate the detections with the real AP evaluator into a
// per-class AP + mAP + latency report. For a fixed config the accuracy
// section is deterministic and bitwise-identical across backends and
// engine modes (see `rtoss eval`).
func Eval(cfg EvalConfig) (*EvalReport, error) { return eval.Run(cfg) }

// EvalBackends lists the accepted EvalConfig.Backend values.
func EvalBackends() []string { return eval.Backends() }

type (
	// StreamEvalConfig parameterises one streaming-evaluation run.
	StreamEvalConfig = eval.StreamConfig
	// StreamEvalReport is one streaming run's scored outcome: mAP over
	// served frames plus deadline-hit-rate and drop-rate.
	StreamEvalReport = eval.StreamReport
	// StreamFrameOutcome records what happened to one pushed frame.
	StreamFrameOutcome = eval.FrameOutcome
)

// EvalStream scores the streaming serving stack: it replays
// deterministic moving-scene videos through per-stream sessions into
// the micro-batching server's deadline-aware scheduler, then reports
// timeliness (deadline-hit-rate, drop-rate) alongside accuracy (mAP
// over the frames that were actually served). In lockstep mode the run
// is drop-free and its detections are bitwise-identical to the
// single-shot backends on the same frames (see `rtoss stream`).
func EvalStream(cfg StreamEvalConfig) (*StreamEvalReport, error) { return eval.RunStream(cfg) }

// HeadSpecFor returns the decode metadata for a zoo model by display
// name ("YOLOv5s" or "RetinaNet").
func HeadSpecFor(arch string, classes int) (HeadSpec, error) {
	return models.HeadByName(arch, classes)
}

// DecodeImage decodes a PPM/PGM (P2/P3/P5/P6), PNG or baseline-JPEG
// stream into a [3, H, W] tensor in [0, 1] — the Detector's input
// format. The format is sniffed from the leading magic bytes.
func DecodeImage(r io.Reader) (*Tensor, error) { return tensor.DecodeImage(r) }

// EncodePPM writes a [3, H, W] tensor as a binary PPM image.
func EncodePPM(w io.Writer, t *Tensor) error { return tensor.EncodePPM(w, t) }

// KITTISampleImage renders the deterministic synthetic KITTI sample
// scene at w x h (the bundled `rtoss detect` test image).
func KITTISampleImage(w, h int) *Tensor { return kitti.SampleImage(w, h) }

// KITTIClassNames maps KITTI class IDs to labels.
func KITTIClassNames() []string { return kitti.ClassNames[:] }

// Forward runs a real forward pass (auto engine mode) and returns the
// final output tensor.
func Forward(m *Model, input *Tensor) (*Tensor, error) { return engine.Output(m, input) }

// NewTensor returns a zero-filled dense tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// Encode compresses a pruned model's weights in the format implied by
// its sparsity structure and reports exact byte sizes.
func Encode(m *Model, s Structure) *ModelEncoding {
	var dict []uint16
	if s == Pattern {
		for _, e := range []int{2, 3, 4, 5} {
			for _, mk := range pattern.NewDictionary(e).Masks {
				dict = append(dict, uint16(mk))
			}
		}
	}
	return sparse.EncodeModel(m, s, dict)
}

// CanonicalPatterns returns the R-TOSS pattern dictionary for an entry
// count (selected by the paper's combinatorics + adjacency + L2-usage
// procedure).
func CanonicalPatterns(entries int) Dictionary { return pattern.NewDictionary(entries) }

// KITTIScenes generates n deterministic synthetic KITTI scenes.
func KITTIScenes(seed uint64, n int) []Scene { return kitti.Dataset(seed, n, 640, 640) }

// SceneMAP evaluates a detector quality score over scenes with the real
// mAP evaluator (returns mAP in [0,1] at IoU 0.5).
func SceneMAP(scenes []Scene, score float64, seed uint64) float64 {
	return kitti.EvaluateScore(scenes, score, 0.5, seed)
}

// Experiment harness (one call per table/figure of the paper).
var (
	// Table1 regenerates the two-stage vs single-stage comparison.
	Table1 = experiments.Table1
	// Table2 regenerates model size vs TX2 execution time.
	Table2 = experiments.Table2
	// Table3 regenerates the entry-pattern sensitivity study.
	Table3 = experiments.Table3
	// Sensitivity returns Table 3 as structured rows.
	Sensitivity = experiments.Sensitivity
	// RunFrameworks measures every framework on one model.
	RunFrameworks = experiments.RunFrameworks
	// Fig4 regenerates the sparsity/compression comparison.
	Fig4 = experiments.Fig4
	// Fig5 regenerates the mAP comparison.
	Fig5 = experiments.Fig5
	// Fig6 regenerates the speedup comparison.
	Fig6 = experiments.Fig6
	// Fig7 regenerates the energy-reduction comparison.
	Fig7 = experiments.Fig7
	// Fig8 regenerates the qualitative KITTI scene comparison.
	Fig8 = experiments.Fig8
	// AblationDFS quantifies Algorithm 1's compute saving.
	AblationDFS = experiments.AblationDFS
	// AblationConnectivity contrasts kernel removal with R-TOSS.
	AblationConnectivity = experiments.AblationConnectivity
	// Ablation1x1 quantifies Algorithm 3's sparsity contribution.
	Ablation1x1 = experiments.Ablation1x1
	// RTOSSTradeoff sweeps the entry-pattern axis (5EP..2EP).
	RTOSSTradeoff = experiments.RTOSSTradeoff
	// NMSTradeoff sweeps SparseML's target sparsity.
	NMSTradeoff = experiments.NMSTradeoff
	// PDTradeoff sweeps PatDNN's connectivity fraction.
	PDTradeoff = experiments.PDTradeoff
)

// TradeoffCurve is a sparsity/accuracy/latency design-space sweep.
type TradeoffCurve = experiments.TradeoffCurve

// TradeoffPoint is one operating point of a TradeoffCurve.
type TradeoffPoint = experiments.TradeoffPoint
