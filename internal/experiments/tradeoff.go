package experiments

import (
	"fmt"

	"rtoss/internal/baselines"
	"rtoss/internal/core"
	"rtoss/internal/hw"
	"rtoss/internal/metrics"
	"rtoss/internal/prune"
	"rtoss/internal/report"
)

// TradeoffPoint is one operating point on a sparsity/accuracy/latency
// trade-off curve.
type TradeoffPoint struct {
	Label       string
	Sparsity    float64 // whole-model prunable sparsity
	Compression float64
	MAP         float64
	SpeedupTX2  float64
}

// TradeoffCurve sweeps a family of pruner configurations over a model
// and returns the resulting operating points — the design-space view
// behind the paper's fixed operating points (an extension beyond the
// paper's tables; see docs/ARCHITECTURE.md §Substitutions and
// ablations).
type TradeoffCurve struct {
	Family string
	Model  string
	Points []TradeoffPoint
}

// sweep evaluates a list of (label, pruner) pairs on the model.
func sweep(modelName, family string, pruners []struct {
	label string
	p     prune.Pruner
}) (*TradeoffCurve, error) {
	tx2 := hw.JetsonTX2()
	orig := sharedModel(modelName)
	base, err := hw.Estimate(orig, tx2, prune.Dense)
	if err != nil {
		return nil, err
	}
	curve := &TradeoffCurve{Family: family, Model: modelName}
	for _, entry := range pruners {
		m := buildModel(modelName)
		res, err := entry.p.Prune(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", entry.label, err)
		}
		cost, err := hw.Estimate(m, tx2, res.Structure)
		if err != nil {
			return nil, err
		}
		q := metrics.AssessPruned(orig, m, res)
		curve.Points = append(curve.Points, TradeoffPoint{
			Label:       entry.label,
			Sparsity:    m.Sparsity(),
			Compression: res.CompressionRatio(),
			MAP:         q.MAP,
			SpeedupTX2:  cost.Speedup(base),
		})
	}
	return curve, nil
}

// RTOSSTradeoff sweeps the entry-pattern axis (5EP → 2EP).
func RTOSSTradeoff(modelName string) (*TradeoffCurve, error) {
	var entries []struct {
		label string
		p     prune.Pruner
	}
	for _, e := range []int{5, 4, 3, 2} {
		entries = append(entries, struct {
			label string
			p     prune.Pruner
		}{fmt.Sprintf("%dEP", e), core.NewVariant(e)})
	}
	return sweep(modelName, "R-TOSS", entries)
}

// NMSTradeoff sweeps SparseML's global target sparsity.
func NMSTradeoff(modelName string, targets []float64) (*TradeoffCurve, error) {
	var entries []struct {
		label string
		p     prune.Pruner
	}
	for _, t := range targets {
		s := baselines.NewSparseML()
		s.TargetSparsity = t
		entries = append(entries, struct {
			label string
			p     prune.Pruner
		}{fmt.Sprintf("s=%.2f", t), s})
	}
	return sweep(modelName, "SparseML", entries)
}

// PDTradeoff sweeps PatDNN's connectivity-pruning fraction.
func PDTradeoff(modelName string, fracs []float64) (*TradeoffCurve, error) {
	var entries []struct {
		label string
		p     prune.Pruner
	}
	for _, f := range fracs {
		p := baselines.NewPatDNN()
		p.ConnectivityFrac = f
		entries = append(entries, struct {
			label string
			p     prune.Pruner
		}{fmt.Sprintf("conn=%.2f", f), p})
	}
	return sweep(modelName, "PatDNN", entries)
}

// Render formats the curve as a table.
func (c *TradeoffCurve) Render() string {
	t := &report.Table{
		Title:   fmt.Sprintf("%s trade-off on %s (TX2)", c.Family, c.Model),
		Headers: []string{"Point", "Sparsity", "Compression", "mAP", "TX2 speedup"},
	}
	for _, p := range c.Points {
		t.AddRow(p.Label,
			fmt.Sprintf("%.3f", p.Sparsity),
			fmt.Sprintf("%.2fx", p.Compression),
			fmt.Sprintf("%.2f", p.MAP),
			fmt.Sprintf("%.2fx", p.SpeedupTX2))
	}
	return t.Render()
}

// ParetoDominates reports whether point a dominates b (at least as good
// on every axis that matters and strictly better on one).
func ParetoDominates(a, b TradeoffPoint) bool {
	geq := a.MAP >= b.MAP && a.SpeedupTX2 >= b.SpeedupTX2 && a.Compression >= b.Compression
	gt := a.MAP > b.MAP || a.SpeedupTX2 > b.SpeedupTX2 || a.Compression > b.Compression
	return geq && gt
}
