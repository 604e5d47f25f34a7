package engine

import (
	"math"
	"testing"

	"rtoss/internal/core"
	"rtoss/internal/models"
	"rtoss/internal/nn"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// headsAllocBudget bounds steady-state Program.Heads allocations. What
// remains per forward is the returned heads slice and the caller-owned
// head tensors, so the count grows with the number of heads, not with
// the number of layers, pixels or workers. A per-element allocation in
// a kernel, or per-node or per-helper scheduling garbage, lands orders
// of magnitude above it. A 2-image HeadsBatch also returns a table and
// head tensors per image, so it gets twice the budget.
const headsAllocBudget = 40

// gateModel is one detector the engine allocation and determinism gate
// runs over, with its dispatch mode and input resolution.
type gateModel struct {
	name string
	m    *nn.Model
	mode Mode
	res  int
}

// gateModels returns the tiny test detector and pruned YOLOv5s at 64²
// (dispatched sparse, so pattern and CSR kernels are both exercised).
func gateModels(t *testing.T) []gateModel {
	t.Helper()
	yolo := models.YOLOv5s(models.KITTIClasses)
	if _, err := core.NewVariant(3).Prune(yolo); err != nil {
		t.Fatal(err)
	}
	return []gateModel{
		{"tiny", tinyDetector(t, 71), ModeAuto, 32},
		{"yolov5s-64", yolo, ModeSparse, 64},
	}
}

// TestHeadsAllocAndWorkerDeterminism is the engine's allocation and
// determinism gate: for every worker count, steady-state Heads and a
// 2-image HeadsBatch (whose convs split across the workers by image)
// stay within their alloc budgets, and both are bitwise identical to
// the single-worker results.
func TestHeadsAllocAndWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and prunes YOLOv5s; skipped in -short")
	}
	for _, g := range gateModels(t) {
		t.Run(g.name, func(t *testing.T) {
			r := rng.New(72)
			in := randInput(r, 3, g.res, g.res)
			pair := []*tensor.Tensor{in, randInput(r, 3, g.res, g.res)}
			var refHeads []*tensor.Tensor
			var refBatch [][]*tensor.Tensor
			for _, workers := range []int{1, 2, 4} {
				p, err := Compile(g.m, Options{Mode: g.mode, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				heads, err := p.Heads(in)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := p.HeadsBatch(pair)
				if err != nil {
					t.Fatal(err)
				}
				if refHeads == nil {
					refHeads, refBatch = heads, batch
				} else {
					requireBitwise(t, workers, "Heads", refHeads, heads)
					for i := range batch {
						requireBitwise(t, workers, "HeadsBatch", refBatch[i], batch[i])
					}
				}
				if raceEnabled {
					continue // sync.Pool drops run states under -race
				}
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := p.Heads(in); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("workers=%d: Heads %.0f allocs/op (budget %d)", workers, allocs, headsAllocBudget)
				if allocs > headsAllocBudget {
					t.Errorf("workers=%d: Heads allocates %.0f allocs/op in steady state, budget is %d", workers, allocs, headsAllocBudget)
				}
				allocs = testing.AllocsPerRun(5, func() {
					if _, err := p.HeadsBatch(pair); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("workers=%d: HeadsBatch %.0f allocs/op (budget %d)", workers, allocs, 2*headsAllocBudget)
				if allocs > 2*headsAllocBudget {
					t.Errorf("workers=%d: 2-image HeadsBatch allocates %.0f allocs/op in steady state, budget is %d", workers, allocs, 2*headsAllocBudget)
				}
			}
		})
	}
}

// requireBitwise fails unless got and want hold identical float32 bits.
func requireBitwise(t *testing.T, workers int, what string, want, got []*tensor.Tensor) {
	t.Helper()
	for h := range want {
		if len(got[h].Data) != len(want[h].Data) {
			t.Fatalf("workers=%d: %s head %d has %d elements, want %d", workers, what, h, len(got[h].Data), len(want[h].Data))
		}
		for i, v := range want[h].Data {
			if math.Float32bits(got[h].Data[i]) != math.Float32bits(v) {
				t.Fatalf("workers=%d: %s head %d element %d = %v, want %v (bitwise)", workers, what, h, i, got[h].Data[i], v)
			}
		}
	}
}
