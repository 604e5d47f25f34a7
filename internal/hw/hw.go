// Package hw models the two evaluation platforms of the paper — the
// NVIDIA RTX 2080Ti desktop GPU and the Jetson TX2 embedded module —
// with an analytic latency/energy model that reproduces the mechanisms
// pruning exploits:
//
//   - compute time scales with executed (non-zero) MACs, at a
//     structure-dependent efficiency: dense and channel/filter-pruned
//     layers run at the platform's dense throughput; pattern-pruned
//     layers run faster per non-zero MAC (kernels sharing one of 21
//     pre-defined masks are grouped, giving register-level reuse, the
//     PatDNN/YOLObile effect the paper leans on); unstructured sparsity
//     can only be partially skipped and pays an irregularity tax;
//   - each layer pays a fixed launch/framework overhead, which is why
//     measured speedups saturate well below the ideal 9/k;
//   - weight traffic moves compressed (non-zeros only) over the memory
//     bus;
//   - energy integrates static power over runtime plus a per-executed-
//     MAC dynamic cost.
//
// Calibration policy: the dense throughput and per-layer overhead of
// each platform are fitted to the paper's *unpruned baseline* rows
// (Table 2 and the BM-derived latencies of Table 3 / Fig 6), and the
// single pattern-gain constant is anchored on one pruned row
// (R-TOSS-3EP YOLOv5s on the RTX 2080Ti). Every other speedup, energy
// reduction, crossover and framework ordering is emergent. See
// docs/ARCHITECTURE.md §Substitutions and ablations for the
// substitution and its calibration rows.
package hw

import (
	"fmt"

	"rtoss/internal/nn"
	"rtoss/internal/prune"
)

// Platform describes one execution target of the analytic model.
type Platform struct {
	Name string
	// DenseThroughput is the effective dense MAC rate (MAC/s) of the
	// deployed (PyTorch-style, uncompiled) stack — far below peak.
	DenseThroughput float64
	// PatternGain is the per-non-zero-MAC speedup of pattern-grouped
	// sparse execution relative to dense execution (>1: grouped kernels
	// amortise decode and reuse registers).
	PatternGain float64
	// UnstructuredSkip is the fraction of zero-MACs an unstructured-
	// sparse kernel actually avoids (software zero-skipping is
	// imperfect); UnstructuredUtil further derates throughput for the
	// irregular access pattern.
	UnstructuredSkip float64
	UnstructuredUtil float64
	// MixedSkip/MixedUtil are the same knobs for filter+unstructured
	// mixes (Neural Pruning).
	MixedSkip float64
	MixedUtil float64
	// LayerOverhead is the fixed per-layer launch/runtime cost (s).
	LayerOverhead float64
	// MemBandwidth is the effective memory bandwidth (bytes/s).
	MemBandwidth float64
	// LinearDerate divides throughput for Linear (transformer) layers:
	// attention's reshapes, softmaxes and small GEMMs run far below
	// conv GEMM efficiency, especially on embedded stacks.
	LinearDerate float64
	// StaticPower (W) integrates over the whole inference; EnergyPerMAC
	// (J) is the dynamic cost of one executed MAC on this stack
	// (system-level, including DRAM).
	StaticPower  float64
	EnergyPerMAC float64
}

// RTX2080Ti returns the desktop GPU model. Fit: YOLOv5s BM 12.83 ms and
// R-TOSS-3EP 6.9 ms (Table 3); energy fit from BM 0.923 J / 3EP 0.478 J.
func RTX2080Ti() Platform {
	return Platform{
		Name:             "RTX 2080Ti",
		DenseThroughput:  1.2e12,
		PatternGain:      1.92,
		UnstructuredSkip: 0.55,
		UnstructuredUtil: 0.70,
		MixedSkip:        0.80,
		MixedUtil:        0.85,
		LayerOverhead:    29e-6,
		MemBandwidth:     616e9,
		LinearDerate:     4,
		StaticPower:      64.8,
		EnergyPerMAC:     15.1e-12,
	}
}

// JetsonTX2 returns the embedded module model. Fit: Table 2 execution
// times (YOLOv5s 0.7415 s dense) and the Fig 6/7 TX2 baselines.
func JetsonTX2() Platform {
	return Platform{
		Name:             "Jetson TX2",
		DenseThroughput:  16.68e9,
		PatternGain:      1.92,
		UnstructuredSkip: 0.45,
		UnstructuredUtil: 0.65,
		MixedSkip:        0.75,
		MixedUtil:        0.80,
		LayerOverhead:    1.3e-3,
		MemBandwidth:     59.7e9,
		LinearDerate:     14,
		StaticPower:      7.0,
		EnergyPerMAC:     285e-12,
	}
}

// Platforms returns both evaluation platforms in paper order.
func Platforms() []Platform {
	return []Platform{RTX2080Ti(), JetsonTX2()}
}

// LayerCost is the analytic cost of one layer.
type LayerCost struct {
	LayerID int
	Name    string
	// DenseMACs is the layer's full MAC count; ExecMACs the non-zero
	// MACs actually executed after sparsity.
	DenseMACs int64
	ExecMACs  int64
	// WeightBytes is the compressed weight traffic.
	WeightBytes int64
	// ComputeTime/TotalTime in seconds; Energy in joules.
	ComputeTime float64
	TotalTime   float64
	Energy      float64
}

// CostReport is the full analytic execution estimate of a model on a
// platform.
type CostReport struct {
	Model     string
	Platform  string
	Structure prune.Structure
	Layers    []LayerCost
	// Time is end-to-end latency (s); Energy in joules.
	Time   float64
	Energy float64
	// DenseMACs/ExecMACs aggregate the per-layer numbers.
	DenseMACs int64
	ExecMACs  int64
}

// FPS returns inference rate implied by Time.
func (c *CostReport) FPS() float64 {
	if c.Time == 0 {
		return 0
	}
	return 1 / c.Time
}

// Speedup returns base.Time / c.Time.
func (c *CostReport) Speedup(base *CostReport) float64 {
	if c.Time == 0 {
		return 0
	}
	return base.Time / c.Time
}

// EnergyReduction returns the fractional energy saving versus base.
func (c *CostReport) EnergyReduction(base *CostReport) float64 {
	if base.Energy == 0 {
		return 0
	}
	return 1 - c.Energy/base.Energy
}

// costFactor returns the multiplier applied to a layer's dense compute
// time given its density and the sparsity structure.
func (p Platform) costFactor(structure prune.Structure, density float64) float64 {
	if density >= 1 {
		return 1
	}
	switch structure {
	case prune.Dense:
		return 1
	case prune.Pattern:
		// Non-zero MACs execute with the pattern-grouping gain.
		return density / p.PatternGain
	case prune.Unstructured:
		// Only a fraction of the zeros is skipped, and what remains
		// runs at degraded utilisation.
		executed := density + (1-p.UnstructuredSkip)*(1-density)
		return executed / p.UnstructuredUtil
	case prune.Channel, prune.Filter:
		// Structured removals shrink the GEMM; full dense efficiency.
		return density
	case prune.Mixed:
		executed := density + (1-p.MixedSkip)*(1-density)
		return executed / p.MixedUtil
	default:
		return 1
	}
}

// executedMACs returns the MACs that actually run (for the dynamic
// energy term): zeros that are skipped do not toggle the datapath.
func (p Platform) executedMACs(structure prune.Structure, macs int64, density float64) int64 {
	if density >= 1 {
		return macs
	}
	switch structure {
	case prune.Unstructured:
		return int64(float64(macs) * (density + (1-p.UnstructuredSkip)*(1-density)))
	case prune.Mixed:
		return int64(float64(macs) * (density + (1-p.MixedSkip)*(1-density)))
	default:
		return int64(float64(macs) * density)
	}
}

// Estimate computes the analytic execution cost of a model on the
// platform. The structure tag describes how the model was pruned
// (prune.Dense for the base model); per-layer density is read from the
// weight tensors, so the same function serves every framework.
func Estimate(m *nn.Model, p Platform, structure prune.Structure) (*CostReport, error) {
	shapes, err := m.InferShapes()
	if err != nil {
		return nil, fmt.Errorf("hw: %s: %w", m.Name, err)
	}
	rep := &CostReport{Model: m.Name, Platform: p.Name, Structure: structure}
	for _, l := range m.Layers {
		macs := l.MACs(shapes[l.ID].H, shapes[l.ID].W)
		if macs == 0 && l.Kind != nn.Conv && l.Kind != nn.Linear {
			// Topology nodes still pay launch overhead below via count.
		}
		density := 1.0
		if w := l.WeightCount(); w > 0 {
			density = float64(l.NNZ()) / float64(w)
		}
		st := structure
		if density >= 1 {
			st = prune.Dense
		}
		factor := p.costFactor(st, density)
		throughput := p.DenseThroughput
		if l.Kind == nn.Linear && p.LinearDerate > 1 {
			throughput /= p.LinearDerate
		}
		compute := float64(macs) * factor / throughput
		bytes := l.NNZ() * 4
		mem := float64(bytes) / p.MemBandwidth
		total := compute + mem + p.LayerOverhead
		exec := p.executedMACs(st, macs, density)
		cost := LayerCost{
			LayerID:     l.ID,
			Name:        l.Name,
			DenseMACs:   macs,
			ExecMACs:    exec,
			WeightBytes: bytes,
			ComputeTime: compute,
			TotalTime:   total,
		}
		rep.DenseMACs += macs
		rep.ExecMACs += exec
		rep.Time += total
		rep.Layers = append(rep.Layers, cost)
	}
	rep.Energy = p.StaticPower*rep.Time + p.EnergyPerMAC*float64(rep.ExecMACs)
	// Distribute energy per layer proportionally for reporting.
	for i := range rep.Layers {
		l := &rep.Layers[i]
		l.Energy = p.StaticPower*l.TotalTime + p.EnergyPerMAC*float64(l.ExecMACs)
	}
	return rep, nil
}

// EstimateTwoStage runs Estimate over a two-stage detector: the main
// network plus regions× the per-region classifier (Table 1 support).
// per may be nil for single-stage detectors.
func EstimateTwoStage(main, per *nn.Model, regions int, p Platform) (*CostReport, error) {
	rep, err := Estimate(main, p, prune.Dense)
	if err != nil {
		return nil, err
	}
	if per != nil && regions > 0 {
		perRep, err := Estimate(per, p, prune.Dense)
		if err != nil {
			return nil, err
		}
		rep.Time += float64(regions) * perRep.Time
		rep.Energy += float64(regions) * perRep.Energy
		rep.DenseMACs += int64(regions) * perRep.DenseMACs
		rep.ExecMACs += int64(regions) * perRep.ExecMACs
	}
	return rep, nil
}
