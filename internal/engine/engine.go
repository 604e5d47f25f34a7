// Package engine executes model descriptors for real: a forward pass
// over the numeric kernels in internal/tensor. It exists to (a) prove
// the descriptors are runnable networks, not just parameter
// inventories, (b) let tests measure how pruning perturbs actual
// activations, and (c) demonstrate the paper's central claim in this
// codebase: semi-structured sparsity is *executable* — a pattern-pruned
// model really does run faster than its dense twin.
//
// The package is split compile-once / run-many:
//
//   - Program (see Compile) is the immutable compiled artifact: per
//     layer it holds dense, pattern-grouped or CSR convolution kernels,
//     chosen from the layer's recorded prune structure and measured
//     weight density (Options.Mode selects dense-only, forced-sparse or
//     automatic dispatch), plus the DAG's topological wavefront levels
//     and the consumer counts of the activation buffer plan. One
//     Program safely serves any number of concurrent goroutines.
//   - Run state is cheap and per-request: each Output/HeadsBatch call
//     borrows a runState (activation arena + buffer refcounts) from the
//     Program's sync.Pool, so steady-state serving re-uses activation
//     buffers across requests instead of re-allocating them.
//
// Within a run, layers are wavefront-scheduled: the DAG's topological
// levels run one after another, the layers inside a level concurrently
// on a bounded worker pool; batched inputs additionally split
// convolutions across the batch dimension. Output-style runs recycle a
// layer's output buffer as soon as its last consumer has executed.
//
// The analytic latency/energy estimation lives in internal/hw; this
// package is the numeric twin.
package engine

import (
	"fmt"
	"math"

	"rtoss/internal/nn"
	"rtoss/internal/tensor"
)

// Mode selects the engine's kernel-dispatch policy.
type Mode int

const (
	// ModeAuto picks dense or sparse per layer: layers whose weight
	// density is below a cutoff (i.e. where skipping zeros pays for the
	// indirection) run sparse, everything else dense.
	ModeAuto Mode = iota
	// ModeDense runs every layer with the dense kernels regardless of
	// sparsity (the baseline pruning papers argue against).
	ModeDense
	// ModeSparse runs every pruned layer with sparse kernels, even when
	// its density makes that a poor trade; unpruned layers stay dense.
	ModeSparse
)

var modeNames = map[Mode]string{ModeAuto: "auto", ModeDense: "dense", ModeSparse: "sparse"}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses "auto", "dense" or "sparse".
func ParseMode(s string) (Mode, error) {
	for m, n := range modeNames {
		if n == s {
			return m, nil
		}
	}
	return ModeAuto, fmt.Errorf("engine: unknown mode %q (auto|dense|sparse)", s)
}

// autoDensityCutoff is the weight density below which ModeAuto switches
// a conv layer to a sparse kernel. The sparse paths cost roughly one
// multiply-add per non-zero tap plus per-kernel indirection, so they
// win comfortably below ~3/4 density and lose above it.
const autoDensityCutoff = 0.75

// Options configures a Program.
type Options struct {
	// Mode is the kernel-dispatch policy (default ModeAuto).
	Mode Mode
	// Workers bounds the per-level worker pool; 0 means GOMAXPROCS.
	Workers int
	// PatternDict is the mask dictionary pattern-compiled layers are
	// encoded against. Nil uses the canonical R-TOSS dictionaries
	// (2EP..5EP) plus the empty mask (connectivity-pruned kernels).
	PatternDict []uint16
}

// ---------------------------------------------------------------------
// Package-level convenience API (compile-and-run with defaults).

// Forward compiles the model with default options (auto dispatch,
// GOMAXPROCS workers) and returns every layer's output tensor, indexed
// by layer ID.
func Forward(m *nn.Model, input *tensor.Tensor) ([]*tensor.Tensor, error) {
	p, err := Compile(m, Options{})
	if err != nil {
		return nil, err
	}
	return p.Forward(input)
}

// Output runs Forward and returns the final layer's tensor.
func Output(m *nn.Model, input *tensor.Tensor) (*tensor.Tensor, error) {
	p, err := Compile(m, Options{})
	if err != nil {
		return nil, err
	}
	return p.Output(input)
}

func applyAct(v float32, act nn.Activation) float32 {
	switch act {
	case nn.ReLU:
		if v < 0 {
			return 0
		}
		return v
	case nn.SiLU:
		return v * sigmoid(v)
	case nn.LeakyReLU:
		if v < 0 {
			return 0.1 * v
		}
		return v
	case nn.Sigmoid:
		return sigmoid(v)
	default:
		return v
	}
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// OutputDelta runs both models on the same input and returns the
// relative L2 difference of their final outputs — the activation-space
// damage a pruning method caused.
func OutputDelta(a, b *nn.Model, input *tensor.Tensor) (float64, error) {
	oa, err := Output(a, input)
	if err != nil {
		return 0, err
	}
	ob, err := Output(b, input)
	if err != nil {
		return 0, err
	}
	if !oa.SameShape(ob) {
		return 0, fmt.Errorf("engine: output shapes differ: %v vs %v", oa.Shape(), ob.Shape())
	}
	diff := oa.Clone()
	for i := range diff.Data {
		diff.Data[i] -= ob.Data[i]
	}
	ref := oa.L2()
	if ref == 0 {
		return diff.L2(), nil
	}
	return diff.L2() / ref, nil
}
