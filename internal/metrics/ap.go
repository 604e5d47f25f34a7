// Package metrics implements the accuracy stack: a real PASCAL/KITTI
// style AP/mAP evaluator (greedy IoU matching, precision-recall curve,
// interpolated AP), and the information-retention mAP surrogate that
// substitutes for post-pruning finetuned evaluation (the repository's
// documented substitution for a GPU training stack; see
// docs/ARCHITECTURE.md §Substitutions and ablations).
package metrics

import (
	"sort"

	"rtoss/internal/detect"
)

// Sample pairs one image's detections with its ground truth.
type Sample struct {
	Detections []detect.Detection
	Truth      []detect.GroundTruth
}

// APResult is the evaluation outcome for one class.
type APResult struct {
	Class     int
	AP        float64
	Precision []float64
	Recall    []float64
	NumTruth  int
	NumDet    int
}

// Evaluate computes per-class AP and mAP at the given IoU threshold
// over a dataset, using greedy highest-score-first matching (each
// ground-truth box matches at most one detection; difficult objects
// neither count as truth nor penalise detections that match them).
func Evaluate(samples []Sample, numClasses int, iouThreshold float64) (perClass []APResult, mAP float64) {
	perClass = make([]APResult, numClasses)
	validClasses := 0
	sum := 0.0
	for c := 0; c < numClasses; c++ {
		perClass[c] = evalClass(samples, c, iouThreshold)
		if perClass[c].NumTruth > 0 {
			validClasses++
			sum += perClass[c].AP
		}
	}
	if validClasses > 0 {
		mAP = sum / float64(validClasses)
	}
	return perClass, mAP
}

type scoredMatch struct {
	score float64
	tp    bool
	skip  bool // matched a difficult object: ignore entirely
}

func evalClass(samples []Sample, class int, iouThreshold float64) APResult {
	var matches []scoredMatch
	numTruth := 0
	numDet := 0
	for _, s := range samples {
		var truth []detect.GroundTruth
		for _, g := range s.Truth {
			if g.Class == class {
				truth = append(truth, g)
				if !g.Difficult {
					numTruth++
				}
			}
		}
		var dets []detect.Detection
		for _, d := range s.Detections {
			if d.Class == class {
				dets = append(dets, d)
			}
		}
		numDet += len(dets)
		sort.SliceStable(dets, func(i, j int) bool { return dets[i].Score > dets[j].Score })
		used := make([]bool, len(truth))
		for _, d := range dets {
			bestIoU := 0.0
			bestIdx := -1
			for ti, g := range truth {
				if used[ti] {
					continue
				}
				if iou := detect.IoU(d.Box, g.Box); iou > bestIoU {
					bestIoU = iou
					bestIdx = ti
				}
			}
			m := scoredMatch{score: d.Score}
			if bestIdx >= 0 && bestIoU >= iouThreshold {
				used[bestIdx] = true
				if truth[bestIdx].Difficult {
					m.skip = true
				} else {
					m.tp = true
				}
			}
			matches = append(matches, m)
		}
	}
	res := APResult{Class: class, NumTruth: numTruth, NumDet: numDet}
	if numTruth == 0 {
		return res
	}
	sort.SliceStable(matches, func(i, j int) bool { return matches[i].score > matches[j].score })
	tp, fp := 0, 0
	for _, m := range matches {
		if m.skip {
			continue
		}
		if m.tp {
			tp++
		} else {
			fp++
		}
		res.Precision = append(res.Precision, float64(tp)/float64(tp+fp))
		res.Recall = append(res.Recall, float64(tp)/float64(numTruth))
	}
	res.AP = interpolatedAP(res.Precision, res.Recall)
	return res
}

// interpolatedAP computes all-point interpolated average precision: the
// area under the precision envelope as a function of recall.
func interpolatedAP(precision, recall []float64) float64 {
	if len(precision) == 0 {
		return 0
	}
	n := len(precision)
	// Precision envelope: p'(r) = max_{r' >= r} p(r').
	env := make([]float64, n)
	maxP := 0.0
	for i := n - 1; i >= 0; i-- {
		if precision[i] > maxP {
			maxP = precision[i]
		}
		env[i] = maxP
	}
	ap := 0.0
	prevR := 0.0
	for i := 0; i < n; i++ {
		ap += (recall[i] - prevR) * env[i]
		prevR = recall[i]
	}
	return ap
}
