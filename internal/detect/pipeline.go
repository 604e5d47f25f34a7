package detect

import (
	"slices"
	"sort"
	"time"

	"rtoss/internal/tensor"
)

// pipeline.go assembles the primitives into the full post-network
// detection pipeline: decode -> score filter -> class-aware NMS ->
// un-letterbox. The image -> boxes Detector that feeds this from a
// compiled engine.Program lives in the root rtoss package (this
// package stays engine-free so internal/models can export HeadSpecs
// without an import cycle).

// Config parameterises the post-network detection pipeline. Zero (or
// negative) values select the defaults — thresholds therefore live in
// (0, 1]; an explicit 0 cannot be distinguished from "unset".
type Config struct {
	// Spec is the model's head decode metadata (required).
	Spec HeadSpec
	// ScoreThreshold drops candidates below this confidence
	// (default 0.25; must be > 0, see above).
	ScoreThreshold float64
	// IoUThreshold is the class-aware NMS overlap cutoff
	// (default 0.45; must be > 0, see above).
	IoUThreshold float64
	// MaxCandidates bounds the boxes entering NMS, keeping the
	// highest-scoring ones (default 1000; NMS is quadratic per class).
	MaxCandidates int
	// MaxDetections bounds the final detection count (default 300).
	MaxDetections int
	// ExactMath routes decoding through the float64 math.Exp reference
	// decoders instead of the default fast float32 path (polynomial
	// sigmoid within FastSigmoidTolerance, raw-logit gating, pooled
	// scratch). The fast path is the serving default; pin ExactMath
	// when bitwise float64 reproducibility matters more than speed.
	ExactMath bool
}

// WithDefaults returns the config with zero values replaced by the
// documented defaults.
func (c Config) WithDefaults() Config {
	if c.ScoreThreshold <= 0 {
		c.ScoreThreshold = 0.25
	}
	if c.IoUThreshold <= 0 {
		c.IoUThreshold = 0.45
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 1000
	}
	if c.MaxDetections <= 0 {
		c.MaxDetections = 300
	}
	return c
}

// TopK returns the k highest-scoring detections (stable: ties keep
// their input order). It returns the input slice when k >= len.
func TopK(dets []Detection, k int) []Detection {
	if k >= len(dets) {
		return dets
	}
	sorted := append([]Detection(nil), dets...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	return sorted[:k]
}

// Postprocess runs the post-network pipeline on one image's head
// tensors: decode to model-space candidates, keep the best
// MaxCandidates, class-aware NMS, map boxes back to source-image
// pixels via the letterbox metadata, and clip to the source bounds.
// The result is in descending score order for every candidate count.
func Postprocess(heads []*tensor.Tensor, meta tensor.LetterboxMeta, cfg Config) ([]Detection, error) {
	return PostprocessInto(nil, heads, meta, cfg)
}

// PostStats is the work accounting of one Postprocess call — the
// per-stage counters the serving layer aggregates into its Stats.
type PostStats struct {
	// Candidates is how many decoded boxes entered TopK/NMS.
	Candidates int
	// Kept is how many boxes were emitted after NMS and clipping.
	Kept int
	// Decode covers head decoding plus TopK selection and sorting.
	Decode time.Duration
	// NMS covers class-bucketed suppression and un-letterboxing.
	NMS time.Duration
}

// PostprocessInto is Postprocess appending into dst (which may be nil):
// passing a capacity-retaining buffer makes the whole post-network
// stage allocation-free in steady state — candidates, TopK selection
// and NMS bookkeeping all live in pooled scratch. The appended region
// is guaranteed to be in descending score order regardless of how many
// candidates the decode produced.
//
//rtoss:noalloc
func PostprocessInto(dst []Detection, heads []*tensor.Tensor, meta tensor.LetterboxMeta, cfg Config) ([]Detection, error) {
	dst, _, err := PostprocessStats(dst, heads, meta, cfg)
	return dst, err
}

// PostprocessStats is PostprocessInto returning the per-stage work
// counters alongside the detections.
//
//rtoss:noalloc
func PostprocessStats(dst []Detection, heads []*tensor.Tensor, meta tensor.LetterboxMeta, cfg Config) ([]Detection, PostStats, error) {
	var st PostStats
	cfg = cfg.WithDefaults()
	t0 := time.Now()
	s := ppPool.Get().(*ppScratch)
	defer ppPool.Put(s)
	var err error
	s.cands, err = DecodeInto(s.cands[:0], heads, cfg.Spec, cfg.ScoreThreshold, cfg.ExactMath)
	if err != nil {
		return dst, st, err
	}
	st.Candidates = len(s.cands)
	if len(s.cands) > cfg.MaxCandidates {
		selectTopK(s.cands, cfg.MaxCandidates)
		s.cands = s.cands[:cfg.MaxCandidates]
	}
	// Sorting before NMS both drives the greedy suppression and makes
	// the emitted order descending by construction — the ordering
	// contract no longer depends on NMS internals.
	sort.Stable(s)
	t1 := time.Now()
	st.Decode = t1.Sub(t0)
	s.nmsBucketed(cfg.Spec.Classes, cfg.IoUThreshold)
	// Grow dst once, by the kept-candidate count capped at
	// MaxDetections, instead of through append doubling.
	kept := 0
	for _, k := range s.keep {
		if k {
			kept++
		}
	}
	dst = slices.Grow(dst, min(kept, cfg.MaxDetections))
	base := len(dst)
	srcW, srcH := float64(meta.SrcW), float64(meta.SrcH)
	emitted := 0
	for i := range s.cands {
		if !s.keep[i] {
			continue
		}
		if emitted == cfg.MaxDetections {
			break
		}
		emitted++
		d := s.cands[i]
		x1, y1 := meta.ToSource(d.Box.X1, d.Box.Y1)
		x2, y2 := meta.ToSource(d.Box.X2, d.Box.Y2)
		d.Box = NewBox(x1, y1, x2, y2).Clip(srcW, srcH)
		if d.Box.Area() > 0 { // drop boxes clipped away entirely
			dst = append(dst, d)
		}
	}
	// Structural backstop for the ordering guarantee: the emit loop
	// walks a sorted buffer, so this never fires in practice, but the
	// contract survives future refactors of the stages above.
	if out := dst[base:]; !sortedDescending(out) {
		//rtoss:allow noalloc (cold backstop; never fires while the emit loop walks sorted scratch)
		sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	}
	st.Kept = len(dst) - base
	st.NMS = time.Since(t1)
	return dst, st, nil
}

// Timing is the per-stage wall-clock breakdown of one Detect call.
type Timing struct {
	// Ingest covers image-bytes decode (PNM/PNG/JPEG → float tensor).
	// Zero when the caller handed over an already-decoded tensor.
	Ingest time.Duration
	// Preprocess covers letterbox resize + NCHW staging.
	Preprocess time.Duration
	// Forward covers the compiled Program's forward pass.
	Forward time.Duration
	// Decode covers head decoding, NMS and un-letterboxing.
	Decode time.Duration
}

// Total returns the end-to-end pipeline time.
func (t Timing) Total() time.Duration { return t.Ingest + t.Preprocess + t.Forward + t.Decode }

// Result is one end-to-end detection call's output.
type Result struct {
	// Detections are the kept boxes in source-image pixel coordinates,
	// in descending score order.
	Detections []Detection
	// SrcW, SrcH are the input image's dimensions.
	SrcW, SrcH int
	// Timing is the per-stage latency breakdown.
	Timing Timing
}
