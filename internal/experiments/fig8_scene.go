package experiments

import (
	"rtoss/internal/detect"
	"rtoss/internal/kitti"
	"rtoss/internal/rng"
)

// pickFig8Scene returns a fixed scene containing both large near
// vehicles and one tiny distant car, mirroring the frame the paper uses
// to show that only R-TOSS-2EP keeps detecting the small object.
func pickFig8Scene() kitti.Scene {
	return kitti.Scene{
		W: 640, H: 640,
		Truth: []detect.GroundTruth{
			{Box: detect.NewBox(40, 380, 250, 520), Class: kitti.Car},      // near car, left
			{Box: detect.NewBox(420, 360, 620, 480), Class: kitti.Van},     // near van, right
			{Box: detect.NewBox(300, 330, 345, 355), Class: kitti.Car},     // distant small car
			{Box: detect.NewBox(210, 300, 228, 312), Class: kitti.Car},     // tiny far car (the Fig 8 object)
			{Box: detect.NewBox(520, 300, 545, 350), Class: kitti.Cyclist}, // mid-range cyclist
		},
	}
}

// fig8RNG gives each framework a deterministic noise stream so the
// rendered comparison is stable across runs.
func fig8RNG(framework string) *rng.RNG {
	seed := uint64(0xF18)
	for _, c := range framework {
		seed = seed*131 + uint64(c)
	}
	return rng.New(seed)
}

// ---------------------------------------------------------------------
// Ablations (A1-A3, docs/ARCHITECTURE.md §Substitutions and ablations)

// AblationDFS compares pruning cost with and without Algorithm 1
// grouping: the number of best-fit searches and wall time.
type AblationDFSResult struct {
	WithSearches, WithoutSearches     int64
	WithInherited                     int64
	WithDurationMS, WithoutDurationMS float64
	SparsityWith, SparsityWithout     float64
}

// AblationConnectivityResult compares mAP at matched sparsity with
// kernel-connectivity pruning (PatDNN-style) vs without (R-TOSS).
type AblationConnectivityResult struct {
	MAPWithConnectivity    float64
	MAPWithoutConnectivity float64
	SparsityWith           float64
	SparsityWithout        float64
}

// Ablation1x1Result compares achievable sparsity with and without
// Algorithm 3 (the 1×1 transform).
type Ablation1x1Result struct {
	SparsityWith       float64
	SparsityWithout    float64
	CompressionWith    float64
	CompressionWithout float64
}
