// Package nn defines the neural-network layer and model descriptors the
// pruning frameworks operate on: convolution layers with real weight
// tensors, batch-norm/activation/pooling/topology nodes, per-layer
// parameter and MAC accounting, and shape inference over the model DAG.
//
// The descriptors are deliberately framework-shaped: a layer knows its
// producers (Inputs), so the model converts losslessly to the
// computational graph consumed by Algorithm 1 (internal/graph), and
// every pruning decision made by R-TOSS or a baseline mutates the
// Weight tensors held here.
package nn

import (
	"fmt"

	"rtoss/internal/tensor"
)

// Kind enumerates layer types.
type Kind int

// Layer kinds. Conv and Linear carry weights; the rest are topology or
// pointwise nodes that shape inference and Algorithm 1's DFS must
// understand.
const (
	Input Kind = iota
	Conv
	BatchNorm
	Act
	MaxPool
	Upsample
	Concat
	Add
	GlobalPool
	Linear
	Detect // detection-head sink: collects multi-scale outputs
)

var kindNames = map[Kind]string{
	Input: "Input", Conv: "Conv", BatchNorm: "BatchNorm", Act: "Act",
	MaxPool: "MaxPool", Upsample: "Upsample", Concat: "Concat", Add: "Add",
	GlobalPool: "GlobalPool", Linear: "Linear", Detect: "Detect",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Activation enumerates activation functions.
type Activation int

// Supported activations.
const (
	NoAct Activation = iota
	ReLU
	SiLU
	LeakyReLU
	Sigmoid
)

// Layer is a single node of a model. Only the fields relevant to its
// Kind are populated.
type Layer struct {
	ID     int
	Name   string
	Module string // high-level module tag (e.g. "backbone.C3_1")
	Kind   Kind
	Inputs []int // producer layer IDs
	// NoPrune excludes the layer from pruning (e.g. RetinaNet's shared
	// head towers, which are too sensitive to prune; the paper's
	// RetinaNet compression ratios imply they were left dense).
	NoPrune bool
	// MACScale multiplies the layer's MAC count in cost models (zero
	// means 1). RetinaNet's shared heads are instantiated once but run
	// on five pyramid levels; their layers carry the spatial sum ratio.
	MACScale float64
	// Structure records the sparsity structure of the pruner that last
	// touched this layer (SparsityDense when never pruned). The
	// execution engine's auto mode uses it to pick a dense or sparse
	// kernel per layer.
	Structure Sparsity

	// Conv fields. Weight is laid out [OutC, InC/Groups, KH, KW].
	InC, OutC          int
	KH, KW             int
	Stride, Pad, Group int
	Weight             *tensor.Tensor
	Bias               []float32

	// BatchNorm fields (per-channel affine parameters).
	Gamma, Beta []float32

	// Act field.
	Act Activation

	// Pool fields (MaxPool).
	PoolK, PoolStride, PoolPad int

	// Upsample scale factor (nearest neighbour).
	Scale int

	// Linear fields. LinW is laid out [OutF, InF].
	InF, OutF int
	LinW      *tensor.Tensor
	LinB      []float32
}

// IsConv reports whether the layer carries convolution kernels.
func (l *Layer) IsConv() bool { return l.Kind == Conv }

// Is1x1 reports whether the layer is a pointwise (1×1) convolution.
func (l *Layer) Is1x1() bool { return l.Kind == Conv && l.KH == 1 && l.KW == 1 }

// Is3x3 reports whether the layer is a 3×3 convolution.
func (l *Layer) Is3x3() bool { return l.Kind == Conv && l.KH == 3 && l.KW == 3 }

// KernelCount returns the number of spatial kernels in a conv layer
// (OutC × InC/Groups); zero for other kinds.
func (l *Layer) KernelCount() int {
	if l.Kind != Conv {
		return 0
	}
	return l.OutC * (l.InC / l.Group)
}

// Kernel returns the row-major spatial kernel (length KH*KW) for output
// channel oc and (per-group) input channel ic as a mutable slice view
// into the layer's weight tensor.
func (l *Layer) Kernel(oc, ic int) []float32 {
	if l.Kind != Conv {
		panic("nn: Kernel on non-conv layer")
	}
	ks := l.KH * l.KW
	base := (oc*(l.InC/l.Group) + ic) * ks
	return l.Weight.Data[base : base+ks]
}

// Params returns the number of learnable parameters of the layer
// (weights + biases + batch-norm affine parameters), matching the
// PyTorch convention used by the paper's parameter counts.
func (l *Layer) Params() int64 {
	switch l.Kind {
	case Conv:
		n := int64(l.OutC) * int64(l.InC/l.Group) * int64(l.KH) * int64(l.KW)
		if l.Bias != nil {
			n += int64(l.OutC)
		}
		return n
	case BatchNorm:
		return int64(2 * len(l.Gamma))
	case Linear:
		n := int64(l.InF) * int64(l.OutF)
		if l.LinB != nil {
			n += int64(l.OutF)
		}
		return n
	default:
		return 0
	}
}

// WeightCount returns the number of prunable weights (conv kernel or
// linear matrix entries, excluding biases and BN parameters).
func (l *Layer) WeightCount() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.OutC) * int64(l.InC/l.Group) * int64(l.KH) * int64(l.KW)
	case Linear:
		return int64(l.InF) * int64(l.OutF)
	default:
		return 0
	}
}

// NNZ returns the number of non-zero prunable weights.
func (l *Layer) NNZ() int64 {
	switch l.Kind {
	case Conv:
		if l.Weight == nil {
			return 0
		}
		return int64(l.Weight.NNZ())
	case Linear:
		if l.LinW == nil {
			return 0
		}
		return int64(l.LinW.NNZ())
	default:
		return 0
	}
}

// MACs returns the multiply-accumulate count of the layer for the given
// input spatial size, assuming dense execution. outH/outW are computed
// by the caller's shape inference.
func (l *Layer) MACs(outH, outW int) int64 {
	scale := l.MACScale
	if scale == 0 {
		scale = 1
	}
	switch l.Kind {
	case Conv:
		perPos := int64(l.InC/l.Group) * int64(l.KH) * int64(l.KW)
		return int64(scale * float64(int64(outH)*int64(outW)*int64(l.OutC)*perPos))
	case Linear:
		return int64(scale * float64(int64(l.InF)*int64(l.OutF)))
	case BatchNorm:
		// scale+shift per element: count as one MAC per output element.
		return int64(outH) * int64(outW) * int64(len(l.Gamma))
	default:
		return 0
	}
}

// Validate checks internal consistency of the layer descriptor.
func (l *Layer) Validate() error {
	switch l.Kind {
	case Conv:
		if l.InC <= 0 || l.OutC <= 0 || l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 {
			return fmt.Errorf("nn: layer %q invalid conv dims in=%d out=%d k=%dx%d s=%d", l.Name, l.InC, l.OutC, l.KH, l.KW, l.Stride)
		}
		if l.Group <= 0 || l.InC%l.Group != 0 || l.OutC%l.Group != 0 {
			return fmt.Errorf("nn: layer %q invalid groups %d for in=%d out=%d", l.Name, l.Group, l.InC, l.OutC)
		}
		if l.Weight != nil {
			want := []int{l.OutC, l.InC / l.Group, l.KH, l.KW}
			got := l.Weight.Shape()
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("nn: layer %q weight shape %v want %v", l.Name, got, want)
				}
			}
		}
		if len(l.Bias) != 0 && len(l.Bias) != l.OutC {
			return fmt.Errorf("nn: layer %q bias length %d, want 0 or %d", l.Name, len(l.Bias), l.OutC)
		}
		if len(l.Inputs) != 1 {
			return fmt.Errorf("nn: conv layer %q needs exactly 1 input, has %d", l.Name, len(l.Inputs))
		}
	case MaxPool:
		if l.PoolK <= 0 || l.PoolStride <= 0 {
			return fmt.Errorf("nn: max-pool layer %q invalid kernel %d stride %d", l.Name, l.PoolK, l.PoolStride)
		}
	case BatchNorm:
		if len(l.Gamma) == 0 || len(l.Gamma) != len(l.Beta) {
			return fmt.Errorf("nn: layer %q BN gamma/beta sizes %d/%d", l.Name, len(l.Gamma), len(l.Beta))
		}
	case Concat:
		if len(l.Inputs) < 2 {
			return fmt.Errorf("nn: concat layer %q needs >=2 inputs", l.Name)
		}
	case Add:
		if len(l.Inputs) < 2 {
			return fmt.Errorf("nn: add layer %q needs >=2 inputs", l.Name)
		}
	case Linear:
		if l.InF <= 0 || l.OutF <= 0 {
			return fmt.Errorf("nn: linear layer %q invalid dims", l.Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the layer (weights included).
func (l *Layer) Clone() *Layer {
	c := *l
	c.Inputs = append([]int(nil), l.Inputs...)
	if l.Weight != nil {
		c.Weight = l.Weight.Clone()
	}
	if l.Bias != nil {
		c.Bias = append([]float32(nil), l.Bias...)
	}
	if l.Gamma != nil {
		c.Gamma = append([]float32(nil), l.Gamma...)
	}
	if l.Beta != nil {
		c.Beta = append([]float32(nil), l.Beta...)
	}
	if l.LinW != nil {
		c.LinW = l.LinW.Clone()
	}
	if l.LinB != nil {
		c.LinB = append([]float32(nil), l.LinB...)
	}
	return &c
}
