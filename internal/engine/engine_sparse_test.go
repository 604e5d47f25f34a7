package engine

import (
	"strings"
	"sync"
	"testing"

	"rtoss/internal/baselines"
	"rtoss/internal/core"
	"rtoss/internal/nn"
	"rtoss/internal/prune"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// maxAbsDiff returns the largest elementwise |a-b|.
func maxAbsDiff(t *testing.T, a, b *tensor.Tensor) float64 {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	var m float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestSparseModesMatchDense prunes the tiny detector with every
// framework lineup entry and checks that the sparse and auto engines
// reproduce the dense engine's outputs within 1e-5.
func TestSparseModesMatchDense(t *testing.T) {
	pruners := []prune.Pruner{core.NewVariant(3), core.NewVariant(2)}
	pruners = append(pruners, baselines.All()...)
	for _, p := range pruners {
		t.Run(p.Name(), func(t *testing.T) {
			m := tinyDetector(t, 21)
			if _, err := p.Prune(m); err != nil {
				t.Fatal(err)
			}
			in := randInput(rng.New(22), 3, 32, 32)
			dense, err := Compile(m, Options{Mode: ModeDense})
			if err != nil {
				t.Fatal(err)
			}
			want, err := dense.Output(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{ModeSparse, ModeAuto} {
				e, err := Compile(m, Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Output(in)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(t, got, want); d > 1e-5 {
					t.Errorf("%v engine diverges from dense by %g", mode, d)
				}
			}
		})
	}
}

// TestAutoDispatchUsesRecordedStructure checks that pruning records the
// per-layer structure and that auto mode compiles sparse kernels only
// for pruned layers.
func TestAutoDispatchUsesRecordedStructure(t *testing.T) {
	m := tinyDetector(t, 31)
	unpruned, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p, c := unpruned.SparseLayers(); p != 0 || c != 0 {
		t.Fatalf("unpruned model compiled %d pattern + %d csr layers, want none", p, c)
	}
	if _, err := core.NewVariant(3).Prune(m); err != nil {
		t.Fatal(err)
	}
	recorded := 0
	for _, l := range m.Layers {
		if l.Structure == nn.SparsityPattern {
			recorded++
		}
	}
	if recorded == 0 {
		t.Fatal("pruning recorded no per-layer structure")
	}
	pruned, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, c := pruned.SparseLayers()
	if p == 0 {
		t.Fatal("auto mode compiled no pattern-sparse layers on a pattern-pruned model")
	}
	if p+c > recorded {
		t.Fatalf("auto compiled %d sparse layers but only %d are pruned", p+c, recorded)
	}
}

// TestConcurrentForward hammers one shared engine from many goroutines
// (and with a multi-worker pool) — the go test -race target for the
// wavefront scheduler and the per-run arenas.
func TestConcurrentForward(t *testing.T) {
	m := tinyDetector(t, 41)
	if _, err := core.NewVariant(2).Prune(m); err != nil {
		t.Fatal(err)
	}
	e, err := Compile(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(43), 3, 32, 32)
	want, err := e.Output(in)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	outs := make([]*tensor.Tensor, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				outs[g], errs[g] = e.Output(in)
				return
			}
			all, err := e.Forward(in)
			if err == nil {
				outs[g] = all[len(all)-1]
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if d := maxAbsDiff(t, outs[g], want); d != 0 {
			t.Fatalf("goroutine %d output differs by %g", g, d)
		}
	}
}

// TestConcurrentErrorPropagates checks that a failing layer inside the
// worker pool surfaces as an error, not a crash or a hang.
func TestConcurrentErrorPropagates(t *testing.T) {
	m := tinyDetector(t, 47)
	// Corrupt a mid-network conv so its kernel panics on shape checks.
	for _, l := range m.Layers {
		if l.Kind == nn.Conv {
			l.Weight = tensor.New(l.OutC, l.InC/l.Group+1, l.KH, l.KW)
			break
		}
	}
	e, err := Compile(m, Options{Mode: ModeDense, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Output(randInput(rng.New(1), 3, 32, 32)); err == nil {
		t.Fatal("expected corrupted layer to error")
	}
}

// TestUpsampleExactScaling covers the Upsample scale bug: the old
// doubling loop silently produced 4x output for scale=3.
func TestUpsampleExactScaling(t *testing.T) {
	for _, scale := range []int{1, 2, 3, 4} {
		b := nn.NewBuilder("up", 1, 4, 4, 1)
		x := b.Input()
		x = b.Upsample("up", x, scale)
		b.Detect("out", x)
		m := b.MustBuild()
		in := randInput(rng.New(uint64(scale)), 1, 4, 4)
		out, err := Output(m, in)
		if err != nil {
			t.Fatal(err)
		}
		shapes, err := m.InferShapes()
		if err != nil {
			t.Fatal(err)
		}
		want := shapes[1]
		if out.Dim(2) != want.H || out.Dim(3) != want.W {
			t.Fatalf("scale %d: engine output %v, shape inference says %dx%d", scale, out.Shape(), want.H, want.W)
		}
		for y := 0; y < out.Dim(2); y++ {
			for x := 0; x < out.Dim(3); x++ {
				if got, want := out.At(0, 0, y, x), in.At(0, 0, y/scale, x/scale); got != want {
					t.Fatalf("scale %d: out[%d][%d] = %g, want %g", scale, y, x, got, want)
				}
			}
		}
	}
}

// TestUpsampleInvalidScaleErrors checks negative scales error instead
// of silently looping.
func TestUpsampleInvalidScaleErrors(t *testing.T) {
	b := nn.NewBuilder("up", 1, 4, 4, 1)
	x := b.Input()
	x = b.Upsample("up", x, -3)
	b.Detect("out", x)
	m := b.MustBuild()
	_, err := Output(m, randInput(rng.New(3), 1, 4, 4))
	if err == nil || !strings.Contains(err.Error(), "invalid scale") {
		t.Fatalf("expected invalid-scale error, got %v", err)
	}
}

// TestOutputMatchesForward checks the arena-recycling Output path
// returns exactly what the retain-everything Forward path computes.
func TestOutputMatchesForward(t *testing.T) {
	m := tinyDetector(t, 53)
	if _, err := core.NewVariant(3).Prune(m); err != nil {
		t.Fatal(err)
	}
	e, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(54), 3, 32, 32)
	all, err := e.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Output(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, out, all[len(all)-1]); d != 0 {
		t.Fatalf("Output differs from Forward's final tensor by %g", d)
	}
}
