// Package kitti provides the synthetic stand-in for the KITTI 2-D
// detection benchmark (the dataset itself is not available offline;
// see docs/ARCHITECTURE.md §Substitutions and ablations). It generates
// traffic scenes with the benchmark's class mix and scale distribution
// (distant cars are tiny, near ones large; heavily truncated objects
// are marked difficult), and simulates a detector of a given quality
// score over those scenes — detection probability, localisation noise,
// confidence and false positives all degrade as quality drops, with
// small objects degrading first (the effect Fig 8 of the paper
// illustrates).
//
// The simulated detections feed the real mAP evaluator in
// internal/metrics, so the full detection-evaluation code path is
// exercised end to end.
package kitti

import (
	"fmt"
	"math"
	"strings"

	"rtoss/internal/detect"
	"rtoss/internal/metrics"
	"rtoss/internal/rng"
)

// KITTI object classes.
const (
	Car = iota
	Van
	Truck
	Pedestrian
	PersonSitting
	Cyclist
	Tram
	Misc
	NumClasses
)

// ClassNames maps class IDs to KITTI labels.
var ClassNames = [NumClasses]string{
	"Car", "Van", "Truck", "Pedestrian", "Person_sitting", "Cyclist", "Tram", "Misc",
}

// classWeights approximates the KITTI label distribution (cars dominate).
var classWeights = [NumClasses]float64{0.55, 0.06, 0.03, 0.15, 0.02, 0.10, 0.02, 0.07}

// aspect ratios (width/height) per class, loosely from KITTI statistics.
var classAspect = [NumClasses]float64{2.0, 2.2, 2.8, 0.4, 0.5, 0.7, 3.5, 1.2}

// Scene is one synthetic KITTI frame.
type Scene struct {
	W, H  int
	Truth []detect.GroundTruth
}

// sampleClass draws a class from the KITTI mix.
func sampleClass(r *rng.RNG) int {
	u := r.Float64()
	acc := 0.0
	for c, w := range classWeights {
		acc += w
		if u < acc {
			return c
		}
	}
	return Misc
}

// GenerateScene creates one scene with 3-12 objects. Objects sit in a
// perspective band: boxes higher in the frame are further away and
// therefore smaller, reproducing KITTI's long tail of tiny objects.
func GenerateScene(r *rng.RNG, w, h int) Scene {
	s := Scene{W: w, H: h}
	n := 3 + r.Intn(10)
	for i := 0; i < n; i++ {
		class := sampleClass(r)
		// Depth in [0,1]: 0 = near (bottom, large), 1 = far (mid-frame, tiny).
		depth := math.Sqrt(r.Float64())
		// Object height shrinks with depth: near objects ~28% of frame
		// height, distant ones ~2%.
		objH := (0.02 + 0.26*(1-depth)) * float64(h)
		if class == Pedestrian || class == PersonSitting || class == Cyclist {
			objH *= 0.8
		}
		objW := objH * classAspect[class] * r.Range(0.85, 1.15)
		// Horizon sits at ~45% height; near objects sink toward the bottom.
		cy := float64(h) * (0.45 + 0.40*(1-depth)*r.Range(0.6, 1.0))
		cx := r.Range(objW/2, float64(w)-objW/2)
		box := detect.NewBox(cx-objW/2, cy-objH/2, cx+objW/2, cy+objH/2).Clip(float64(w), float64(h))
		if box.Area() < 4 {
			continue
		}
		// KITTI convention: very small or heavily truncated boxes are
		// "difficult" and excluded from scoring.
		difficult := box.Height() < 0.022*float64(h) || box.Area() < 0.55*objW*objH
		s.Truth = append(s.Truth, detect.GroundTruth{Box: box, Class: class, Difficult: difficult})
	}
	return s
}

// Dataset generates n scenes deterministically from a seed.
func Dataset(seed uint64, n, w, h int) []Scene {
	r := rng.New(seed)
	out := make([]Scene, n)
	for i := range out {
		out[i] = GenerateScene(r.Split(), w, h)
	}
	return out
}

// hardness returns the detection difficulty of an object in [0, ~2.5]:
// zero for large objects, growing as the shorter side shrinks.
func hardness(b detect.Box, frameH float64) float64 {
	minDim := math.Min(b.Width(), b.Height())
	rel := minDim / frameH
	h := 0.016/math.Max(rel, 1e-4) - 0.35
	if h < 0 {
		return 0
	}
	if h > 2.5 {
		return 2.5
	}
	return h
}

// SimulateDetections runs a detector of the given quality score over a
// scene. score 1.0 is the trained dense baseline; pattern-pruned models
// score slightly above 1 (the paper reports mAP gains), while damaged
// models fall below. Degradation hits small objects hardest.
func SimulateDetections(s Scene, score float64, r *rng.RNG) []detect.Detection {
	var dets []detect.Detection
	frameH := float64(s.H)
	for _, g := range s.Truth {
		h := hardness(g.Box, frameH)
		// Miss probability rises with hardness and with quality deficit.
		// Even a perfect detector misses some objects (ceiling 0.97).
		pDet := score - 1.2*h*(1.05-score)
		if pDet > 0.97 {
			pDet = 0.97
		}
		if r.Float64() > pDet {
			continue
		}
		// Class confusion: rarer at baseline quality, more common as
		// information is lost (creates a false positive and a miss).
		cls := g.Class
		if r.Float64() < 0.03+0.30*math.Max(0, 1.0-score) {
			cls = sampleClass(r)
		}
		// Localisation noise: grows as quality drops.
		slack := 1.02 - math.Min(score, 1.02)
		sigma := (0.012 + 0.22*slack) * math.Max(g.Box.Width(), g.Box.Height())
		box := g.Box.Translate(r.Norm(0, sigma), r.Norm(0, sigma))
		box = box.Scale(1 + r.Norm(0, 0.6*sigma/math.Max(g.Box.Width(), 1)))
		box = box.Clip(float64(s.W), float64(s.H))
		conf := 0.35 + 0.60*(score-0.45*h*(1.02-score)) + r.Norm(0, 0.07)
		if conf > 0.99 {
			conf = 0.99
		}
		if conf < 0.05 {
			conf = 0.05
		}
		dets = append(dets, detect.Detection{Box: box, Class: cls, Score: conf})
	}
	// False positives: spurious low-confidence boxes, more as quality drops.
	fpRate := 0.25 + 3.5*math.Max(0, 1.0-score)
	nFP := int(fpRate + r.Float64())
	for i := 0; i < nFP; i++ {
		w := r.Range(0.03, 0.12) * float64(s.W)
		h := w * r.Range(0.4, 1.2)
		x := r.Range(0, float64(s.W)-w)
		y := r.Range(0, float64(s.H)-h)
		dets = append(dets, detect.Detection{
			Box:   detect.NewBox(x, y, x+w, y+h),
			Class: sampleClass(r),
			Score: r.Range(0.05, 0.45),
		})
	}
	return detect.NMS(dets, 0.5)
}

// EvaluateScore runs the full pipeline: simulate a detector of the
// given quality over the scenes and compute mAP@iou with the real
// evaluator. Deterministic for a fixed seed.
func EvaluateScore(scenes []Scene, score float64, iou float64, seed uint64) float64 {
	r := rng.New(seed)
	samples := make([]metrics.Sample, len(scenes))
	for i, s := range scenes {
		samples[i] = metrics.Sample{
			Detections: SimulateDetections(s, score, r.Split()),
			Truth:      s.Truth,
		}
	}
	_, mAP := metrics.Evaluate(samples, NumClasses, iou)
	return mAP
}

// Render draws a scene and detections as ASCII art (Fig 8's qualitative
// comparison). Ground truth is drawn with '.' borders, detections with
// '#', and each detection is annotated in the legend with class and
// confidence. cols controls the character width of the canvas.
func Render(s Scene, dets []detect.Detection, cols int) string {
	rows := cols * s.H / s.W / 2 // terminal cells are ~2x taller than wide
	if rows < 8 {
		rows = 8
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	sx := float64(cols) / float64(s.W)
	sy := float64(rows) / float64(s.H)
	drawBox := func(b detect.Box, ch byte) {
		x1 := int(b.X1 * sx)
		y1 := int(b.Y1 * sy)
		x2 := int(b.X2 * sx)
		y2 := int(b.Y2 * sy)
		if x2 >= cols {
			x2 = cols - 1
		}
		if y2 >= rows {
			y2 = rows - 1
		}
		if x1 < 0 {
			x1 = 0
		}
		if y1 < 0 {
			y1 = 0
		}
		for x := x1; x <= x2; x++ {
			grid[y1][x] = ch
			grid[y2][x] = ch
		}
		for y := y1; y <= y2; y++ {
			grid[y][x1] = ch
			grid[y][x2] = ch
		}
	}
	for _, g := range s.Truth {
		drawBox(g.Box, '.')
	}
	for _, d := range dets {
		drawBox(d.Box, '#')
	}
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	for i, d := range dets {
		fmt.Fprintf(&b, "  #%d %s %.2f %s\n", i+1, ClassNames[d.Class], d.Score, d.Box)
	}
	fmt.Fprintf(&b, "  ground truth: %d objects ('.' borders)\n", len(s.Truth))
	return b.String()
}
