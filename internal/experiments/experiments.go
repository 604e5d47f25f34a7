// Package experiments is the reproduction harness: one runner per table
// and figure of the paper's evaluation (§V), plus the ablations called
// out in docs/ARCHITECTURE.md §Substitutions and ablations. Each runner
// assembles the full pipeline — build model, prune, measure
// compression/sparsity, estimate latency and energy on both platforms,
// assess accuracy — and renders the same rows or series the paper
// reports.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"rtoss/internal/baselines"
	"rtoss/internal/core"
	"rtoss/internal/engine"
	"rtoss/internal/hw"
	"rtoss/internal/kitti"
	"rtoss/internal/metrics"
	"rtoss/internal/models"
	"rtoss/internal/nn"
	"rtoss/internal/prune"
	"rtoss/internal/report"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// FrameworkResult is the full measurement of one pruning framework on
// one model, across both platforms.
type FrameworkResult struct {
	Framework   string
	Model       string
	Structure   prune.Structure
	Compression float64 // params_total / params_nnz (paper's reduction ratio)
	Sparsity    float64 // prunable-weight sparsity
	MAP         float64 // surrogate mAP (%)

	TimeGPU, TimeTX2           float64 // seconds
	SpeedupGPU, SpeedupTX2     float64 // vs the dense baseline (analytic)
	EnergyGPU, EnergyTX2       float64 // joules
	EnergyRedGPU, EnergyRedTX2 float64 // fraction saved vs baseline

	// Measured (not analytic) numbers from the real execution engine at
	// MeasuredRes×MeasuredRes: the dense base model's forward wall-clock,
	// this framework's sparsity-aware forward wall-clock, and their
	// ratio. This is the end-to-end proof that the induced sparsity is
	// executable, on whatever machine ran the experiment.
	MeasuredRes     int
	MeasuredDense   float64 // seconds, dense kernels on the base model
	MeasuredSparse  float64 // seconds, sparse dispatch on the pruned model
	MeasuredSpeedup float64
}

// measuredRes is the probe resolution for measured engine speedups:
// small enough that the pure-Go kernels finish quickly, large enough
// that every conv output stays non-empty (RetinaNet's P7 sits at /128
// but survives 64×64 thanks to padding).
const measuredRes = 64

// MeasureForward times a compiled Program's forward pass (best of reps
// runs, which suppresses one-off scheduler/GC hiccups; reps < 1 counts
// as 1) and returns the final output tensor of the last run. It is
// shared by RunFrameworks and the rtoss CLI so both measure with the
// same methodology.
func MeasureForward(e *engine.Program, input *tensor.Tensor, reps int) (float64, *tensor.Tensor, error) {
	if reps < 1 {
		reps = 1
	}
	best := 0.0
	var out *tensor.Tensor
	for i := 0; i < reps; i++ {
		start := time.Now()
		o, err := e.Output(input)
		if err != nil {
			return 0, nil, err
		}
		out = o
		if d := time.Since(start).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best, out, nil
}

// probeInput returns a deterministic random input for measured runs.
func probeInput(c, res int) *tensor.Tensor {
	r := rng.New(0xbeef)
	in := tensor.New(1, c, res, res)
	for i := range in.Data {
		in.Data[i] = float32(r.Range(-1, 1))
	}
	return in
}

// buildModel returns a fresh copy of a zoo model by name — the path
// for pruners, which mutate weights and must own their copy.
func buildModel(name string) *nn.Model {
	m, err := models.ByName(name, models.KITTIClasses)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return m
}

// sharedModel returns the shared read-only zoo instance by name — the
// path for baselines and reference measurements (analytic estimates,
// dense Program compilation, accuracy assessment), which only read
// weights and so skip the multi-million-parameter clone.
func sharedModel(name string) *nn.Model {
	m, err := models.Shared(name, models.KITTIClasses)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return m
}

// Pruners returns the paper's framework lineup: BM (nil pruner),
// PD, NMS, NS, PF, NP, R-TOSS-3EP, R-TOSS-2EP.
func Pruners() []prune.Pruner {
	ps := []prune.Pruner{}
	ps = append(ps, baselines.All()...)
	ps = append(ps, core.NewVariant(3), core.NewVariant(2))
	return ps
}

var (
	frameworkMu    sync.Mutex
	frameworkCache = map[string][]FrameworkResult{}
)

// RunFrameworks measures the base model plus every framework on the
// named model ("YOLOv5s" or "RetinaNet"). Results are cached per model;
// the first entry is always the Base Model (BM).
func RunFrameworks(modelName string) ([]FrameworkResult, error) {
	frameworkMu.Lock()
	if r, ok := frameworkCache[modelName]; ok {
		frameworkMu.Unlock()
		return r, nil
	}
	frameworkMu.Unlock()

	gpu, tx2 := hw.RTX2080Ti(), hw.JetsonTX2()
	orig := sharedModel(modelName)
	baseGPU, err := hw.Estimate(orig, gpu, prune.Dense)
	if err != nil {
		return nil, err
	}
	baseTX2, err := hw.Estimate(orig, tx2, prune.Dense)
	if err != nil {
		return nil, err
	}
	probe := probeInput(orig.InputC, measuredRes)
	denseEng, err := engine.Compile(orig, engine.Options{Mode: engine.ModeDense})
	if err != nil {
		return nil, err
	}
	baseMeasured, _, err := MeasureForward(denseEng, probe, 2)
	if err != nil {
		return nil, fmt.Errorf("measured dense forward on %s: %w", modelName, err)
	}
	results := []FrameworkResult{{
		Framework:   "Base Model (BM)",
		Model:       modelName,
		Structure:   prune.Dense,
		Compression: 1,
		MAP:         metrics.BaselineQuality(orig).MAP,
		TimeGPU:     baseGPU.Time, TimeTX2: baseTX2.Time,
		SpeedupGPU: 1, SpeedupTX2: 1,
		EnergyGPU: baseGPU.Energy, EnergyTX2: baseTX2.Energy,
		MeasuredRes:   measuredRes,
		MeasuredDense: baseMeasured, MeasuredSparse: baseMeasured, MeasuredSpeedup: 1,
	}}

	for _, p := range Pruners() {
		m := buildModel(modelName)
		res, err := p.Prune(m)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", p.Name(), modelName, err)
		}
		cGPU, err := hw.Estimate(m, gpu, res.Structure)
		if err != nil {
			return nil, err
		}
		cTX2, err := hw.Estimate(m, tx2, res.Structure)
		if err != nil {
			return nil, err
		}
		sparseEng, err := engine.Compile(m, engine.Options{Mode: engine.ModeSparse})
		if err != nil {
			return nil, err
		}
		measured, _, err := MeasureForward(sparseEng, probe, 2)
		if err != nil {
			return nil, fmt.Errorf("measured sparse forward for %s on %s: %w", p.Name(), modelName, err)
		}
		q := metrics.AssessPruned(orig, m, res)
		results = append(results, FrameworkResult{
			Framework:   p.Name(),
			Model:       modelName,
			Structure:   res.Structure,
			Compression: res.CompressionRatio(),
			Sparsity:    res.Sparsity(),
			MAP:         q.MAP,
			TimeGPU:     cGPU.Time, TimeTX2: cTX2.Time,
			SpeedupGPU: cGPU.Speedup(baseGPU), SpeedupTX2: cTX2.Speedup(baseTX2),
			EnergyGPU: cGPU.Energy, EnergyTX2: cTX2.Energy,
			EnergyRedGPU: cGPU.EnergyReduction(baseGPU), EnergyRedTX2: cTX2.EnergyReduction(baseTX2),
			MeasuredRes:   measuredRes,
			MeasuredDense: baseMeasured, MeasuredSparse: measured,
			MeasuredSpeedup: baseMeasured / measured,
		})
	}
	frameworkMu.Lock()
	frameworkCache[modelName] = results
	frameworkMu.Unlock()
	return results, nil
}

// EvalModels is the pair of models the paper evaluates.
var EvalModels = []string{"YOLOv5s", "RetinaNet"}

// ---------------------------------------------------------------------
// Table 1

// Table1 regenerates "Metrics comparison of two-stage vs single-stage
// detectors": literature mAP plus inference rate derived from the
// analytic desktop-GPU model (paper values were likewise collected from
// heterogeneous literature sources).
func Table1() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 1: two-stage vs single-stage detectors",
		Headers: []string{"Name", "Type", "mAP (paper)", "fps (paper)", "fps (model)"},
	}
	gpu := hw.RTX2080Ti()
	for i, d := range models.Zoo() {
		c, err := hw.EstimateTwoStage(d.Model, d.PerRegion, d.Regions, gpu)
		if err != nil {
			return nil, err
		}
		t.AddRow(models.Table1Names[i], d.Stage,
			fmt.Sprintf("%.1f%%", d.RefMAP), fmt.Sprintf("%.2f", d.RefFPS),
			fmt.Sprintf("%.2f", c.FPS()))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Table 2

// table2Paper holds the paper's execution-time column (seconds on TX2).
var table2Paper = map[string]float64{
	"YOLOv5s": 0.7415, "YOLOXs": 1.23, "RetinaNet": 6.8,
	"YOLOv7": 6.5, "YOLOR": 6.89, "DETR": 7.6,
}

// Table2 regenerates "Comparison of model sizes vs. execution time" on
// the Jetson TX2 model.
func Table2() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 2: model size vs execution time (Jetson TX2)",
		Headers: []string{"Model", "Params (M)", "Time (s)", "Paper (s)"},
	}
	tx2 := hw.JetsonTX2()
	for _, m := range models.Table2Models() {
		c, err := hw.Estimate(m, tx2, prune.Dense)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, fmt.Sprintf("%.2f", float64(m.Params())/1e6),
			fmt.Sprintf("%.3f", c.Time), fmt.Sprintf("%.3f", table2Paper[m.Name]))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Table 3

// SensitivityRow is one row of the Table 3 sensitivity study.
type SensitivityRow struct {
	Variant   string
	Model     string
	Reduction float64
	MAP       float64
	TimeMS    float64 // RTX 2080Ti, milliseconds
	EnergyJ   float64 // RTX 2080Ti, joules
}

// Sensitivity runs the Table 3 study: R-TOSS with 5/4/3/2-entry
// patterns on both models, measured on the RTX 2080Ti model.
func Sensitivity() ([]SensitivityRow, error) {
	gpu := hw.RTX2080Ti()
	var rows []SensitivityRow
	for _, modelName := range EvalModels {
		orig := sharedModel(modelName)
		for _, entries := range []int{5, 4, 3, 2} {
			m := buildModel(modelName)
			res, err := core.NewVariant(entries).Prune(m)
			if err != nil {
				return nil, err
			}
			c, err := hw.Estimate(m, gpu, res.Structure)
			if err != nil {
				return nil, err
			}
			q := metrics.AssessPruned(orig, m, res)
			rows = append(rows, SensitivityRow{
				Variant:   fmt.Sprintf("R-TOSS (%dEP)", entries),
				Model:     modelName,
				Reduction: res.CompressionRatio(),
				MAP:       q.MAP,
				TimeMS:    c.Time * 1e3,
				EnergyJ:   c.Energy,
			})
		}
	}
	return rows, nil
}

// Table3 renders the sensitivity study in the paper's layout.
func Table3() (*report.Table, error) {
	rows, err := Sensitivity()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Table 3: R-TOSS sensitivity analysis (RTX 2080Ti)",
		Headers: []string{"Variant", "Model", "Reduction ratio", "mAP", "Inference (ms)", "Energy (J)"},
	}
	for _, r := range rows {
		t.AddRow(r.Variant, r.Model, fmt.Sprintf("%.2fx", r.Reduction),
			fmt.Sprintf("%.2f", r.MAP), fmt.Sprintf("%.2f", r.TimeMS), fmt.Sprintf("%.3f", r.EnergyJ))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Figures 4-7

// figSeries builds one chart series per model over the framework lineup.
func figSeries(value func(FrameworkResult) float64) ([]string, []report.Series, error) {
	var labels []string
	var series []report.Series
	for _, modelName := range EvalModels {
		rs, err := RunFrameworks(modelName)
		if err != nil {
			return nil, nil, err
		}
		s := report.Series{Name: modelName}
		if labels == nil {
			for _, r := range rs {
				labels = append(labels, r.Framework)
			}
		}
		for _, r := range rs {
			s.Values = append(s.Values, value(r))
		}
		series = append(series, s)
	}
	// Transpose: the paper plots frameworks on the X axis per model.
	out := make([]report.Series, len(labels))
	for i, l := range labels {
		out[i] = report.Series{Name: l}
		for _, s := range series {
			out[i].Values = append(out[i].Values, s.Values[i])
		}
	}
	return EvalModels, out, nil
}

// Fig4 regenerates the sparsity-ratio comparison (compression normalised
// to the base model).
func Fig4() (string, error) {
	labels, series, err := figSeries(func(r FrameworkResult) float64 { return r.Compression })
	if err != nil {
		return "", err
	}
	return report.BarChart("Fig 4: compression ratio vs base model", labels, series, "x", 40), nil
}

// Fig5 regenerates the mAP comparison.
func Fig5() (string, error) {
	labels, series, err := figSeries(func(r FrameworkResult) float64 { return r.MAP })
	if err != nil {
		return "", err
	}
	return report.BarChart("Fig 5: mAP comparison (KITTI surrogate)", labels, series, "%", 40), nil
}

// Fig6 regenerates the speedup comparison on both platforms.
func Fig6() (string, error) {
	labelsGPU, seriesGPU, err := figSeries(func(r FrameworkResult) float64 { return r.SpeedupGPU })
	if err != nil {
		return "", err
	}
	labelsTX2, seriesTX2, err := figSeries(func(r FrameworkResult) float64 { return r.SpeedupTX2 })
	if err != nil {
		return "", err
	}
	return report.BarChart("Fig 6a: speedup on RTX 2080Ti", labelsGPU, seriesGPU, "x", 40) + "\n" +
		report.BarChart("Fig 6b: speedup on Jetson TX2", labelsTX2, seriesTX2, "x", 40), nil
}

// Fig7 regenerates the energy-reduction comparison on both platforms.
func Fig7() (string, error) {
	labelsGPU, seriesGPU, err := figSeries(func(r FrameworkResult) float64 { return 100 * r.EnergyRedGPU })
	if err != nil {
		return "", err
	}
	labelsTX2, seriesTX2, err := figSeries(func(r FrameworkResult) float64 { return 100 * r.EnergyRedTX2 })
	if err != nil {
		return "", err
	}
	return report.BarChart("Fig 7a: energy reduction on RTX 2080Ti", labelsGPU, seriesGPU, "%", 40) + "\n" +
		report.BarChart("Fig 7b: energy reduction on Jetson TX2", labelsTX2, seriesTX2, "%", 40), nil
}

// ---------------------------------------------------------------------
// Figure 8

// Fig8 regenerates the qualitative KITTI comparison: one scene,
// RetinaNet pruned by BM / NP / PD / R-TOSS-2EP, rendered as ASCII with
// per-detection confidences. The scene seed is chosen to contain a tiny
// distant car — the object the paper shows only R-TOSS-2EP retaining.
func Fig8(cols int) (string, error) {
	rs, err := RunFrameworks("RetinaNet")
	if err != nil {
		return "", err
	}
	scores := map[string]float64{}
	base := metrics.BaseMAP["RetinaNet"]
	for _, r := range rs {
		scores[r.Framework] = r.MAP / base
	}
	scene := pickFig8Scene()
	out := "Fig 8: qualitative comparison on a KITTI scene (RetinaNet)\n"
	for _, fw := range []string{"Base Model (BM)", "Neural Pruning (NP)", "PatDNN (PD)", "R-TOSS (2EP)"} {
		score, ok := scores[fw]
		if !ok {
			return "", fmt.Errorf("experiments: no score for %q", fw)
		}
		dets := kitti.SimulateDetections(scene, score, fig8RNG(fw))
		out += "\n--- " + fw + fmt.Sprintf(" (quality %.3f)\n", score)
		out += kitti.Render(scene, dets, cols)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Scene-level mAP cross-check

// SceneMAP evaluates a framework's quality score on the synthetic KITTI
// scenes with the real mAP evaluator (the end-to-end cross-check of the
// surrogate; see docs/ARCHITECTURE.md §Substitutions and ablations).
func SceneMAP(modelName string, frameworks []string, scenes int) (map[string]float64, error) {
	rs, err := RunFrameworks(modelName)
	if err != nil {
		return nil, err
	}
	data := kitti.Dataset(2023, scenes, 640, 640)
	base := metrics.BaseMAP[modelName]
	out := map[string]float64{}
	for _, r := range rs {
		want := false
		for _, f := range frameworks {
			if f == r.Framework {
				want = true
			}
		}
		if !want {
			continue
		}
		out[r.Framework] = 100 * kitti.EvaluateScore(data, r.MAP/base, 0.5, 7)
	}
	return out, nil
}
