package nn

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if Conv.String() != "Conv" || BatchNorm.String() != "BatchNorm" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind should include its number")
	}
}

func TestLayerKindPredicates(t *testing.T) {
	c1 := &Layer{Kind: Conv, KH: 1, KW: 1}
	c3 := &Layer{Kind: Conv, KH: 3, KW: 3}
	bn := &Layer{Kind: BatchNorm}
	if !c1.Is1x1() || c1.Is3x3() || !c1.IsConv() {
		t.Fatal("1x1 predicates wrong")
	}
	if !c3.Is3x3() || c3.Is1x1() {
		t.Fatal("3x3 predicates wrong")
	}
	if bn.IsConv() || bn.Is1x1() || bn.Is3x3() {
		t.Fatal("BN predicates wrong")
	}
}

func TestLayerValidateErrors(t *testing.T) {
	cases := []Layer{
		{Name: "bad-dims", Kind: Conv, InC: 0, OutC: 4, KH: 3, KW: 3, Stride: 1, Group: 1, Inputs: []int{0}},
		{Name: "bad-groups", Kind: Conv, InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 1, Group: 2, Inputs: []int{0}},
		{Name: "no-input", Kind: Conv, InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 1, Group: 1},
		{Name: "bad-bn", Kind: BatchNorm, Gamma: make([]float32, 4), Beta: make([]float32, 2)},
		{Name: "bad-concat", Kind: Concat, Inputs: []int{0}},
		{Name: "bad-add", Kind: Add, Inputs: []int{0}},
		{Name: "bad-linear", Kind: Linear, InF: 0, OutF: 4},
	}
	for _, l := range cases {
		ll := l
		if err := ll.Validate(); err == nil {
			t.Errorf("%s: expected validation error", l.Name)
		}
	}
}

// TestLayerValidatePoolAndBias pins the checks that keep a malformed
// max-pool (a zero kernel or stride divides by zero in ConvOut) or a
// conv bias of the wrong length from reaching the engine, where every
// forward would fail at run time.
func TestLayerValidatePoolAndBias(t *testing.T) {
	conv := func(bias []float32) Layer {
		return Layer{Name: "c", Kind: Conv, InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 1, Group: 1, Inputs: []int{0}, Bias: bias}
	}
	pool := func(k, stride int) Layer {
		return Layer{Name: "mp", Kind: MaxPool, PoolK: k, PoolStride: stride, PoolPad: k / 2, Inputs: []int{0}}
	}
	for _, l := range []Layer{conv(nil), conv(make([]float32, 4)), pool(5, 1), pool(2, 2)} {
		if err := l.Validate(); err != nil {
			t.Errorf("valid %v layer rejected: %v", l.Kind, err)
		}
	}
	for _, l := range []Layer{conv(make([]float32, 3)), conv(make([]float32, 5)), pool(0, 1), pool(5, 0), pool(-1, 1), pool(3, -2)} {
		if err := l.Validate(); err == nil {
			t.Errorf("%v layer (bias %d, pool k=%d s=%d) accepted", l.Kind, len(l.Bias), l.PoolK, l.PoolStride)
		}
	}
}

func TestLayerValidateWeightShape(t *testing.T) {
	b := NewBuilder("ws", 3, 8, 8, 1)
	x := b.Input()
	b.Conv("c", x, 3, 4, 3, 1, 1, false)
	m := b.MustBuild()
	m.InitWeights(1)
	// Corrupt the weight tensor shape.
	m.Layers[1].Weight = m.Layers[1].Weight.Reshape(4, 9, 1, 3)
	if err := m.Layers[1].Validate(); err == nil {
		t.Fatal("expected weight-shape error")
	}
}

func TestMACScaleMultiplies(t *testing.T) {
	l := &Layer{Kind: Conv, InC: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Group: 1}
	base := l.MACs(10, 10)
	l.MACScale = 2.5
	if got := l.MACs(10, 10); got != int64(2.5*float64(base)) {
		t.Fatalf("MACScale not applied: %d vs base %d", got, base)
	}
}

func TestKernelPanicsOnNonConv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Layer{Kind: BatchNorm}).Kernel(0, 0)
}

func TestCensusMethods(t *testing.T) {
	c := Census{Conv1x1Kernels: 30, Conv3x3Kernels: 60, OtherKernels: 10}
	if c.TotalKernels() != 100 {
		t.Fatalf("total %d", c.TotalKernels())
	}
	if c.Frac1x1() != 0.3 {
		t.Fatalf("frac %v", c.Frac1x1())
	}
	empty := Census{}
	if empty.Frac1x1() != 0 {
		t.Fatal("empty census frac should be 0")
	}
}

func TestGroupedConvAccounting(t *testing.T) {
	l := &Layer{Kind: Conv, InC: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Group: 4}
	// Grouped conv: 8 * (8/4) * 9 = 144 weights, not 576.
	if l.WeightCount() != 144 {
		t.Fatalf("grouped weight count %d", l.WeightCount())
	}
	if l.KernelCount() != 16 {
		t.Fatalf("grouped kernel count %d", l.KernelCount())
	}
	// MACs shrink by the group factor too.
	if l.MACs(4, 4) != int64(4*4*8*2*9) {
		t.Fatalf("grouped MACs %d", l.MACs(4, 4))
	}
}

func TestLinearParamsAndMACs(t *testing.T) {
	l := &Layer{Kind: Linear, InF: 10, OutF: 5, LinB: make([]float32, 5)}
	if l.Params() != 55 {
		t.Fatalf("linear params %d", l.Params())
	}
	if l.MACs(1, 1) != 50 {
		t.Fatalf("linear MACs %d", l.MACs(1, 1))
	}
	if l.WeightCount() != 50 {
		t.Fatalf("linear weights %d", l.WeightCount())
	}
}

func TestCloneCopiesEverything(t *testing.T) {
	b := NewBuilder("cl", 3, 8, 8, 1)
	x := b.Input()
	x = b.ConvBNAct("c", x, 3, 4, 3, 1, 1, SiLU)
	x = b.GlobalPool("gp", x)
	b.Linear("fc", x, 4, 2, true)
	m := b.MustBuild()
	m.InitWeights(9)
	c := m.Clone()
	// Mutate original BN and linear; clone must be unaffected.
	for _, l := range m.Layers {
		switch l.Kind {
		case BatchNorm:
			l.Gamma[0] = 555
		case Linear:
			l.LinW.Data[0] = 777
			l.LinB[0] = 888
		}
	}
	for _, l := range c.Layers {
		switch l.Kind {
		case BatchNorm:
			if l.Gamma[0] == 555 {
				t.Fatal("clone shares BN gamma")
			}
		case Linear:
			if l.LinW.Data[0] == 777 || l.LinB[0] == 888 {
				t.Fatal("clone shares linear params")
			}
		}
	}
}

func TestModelSparsityEmptyModel(t *testing.T) {
	m := &Model{Name: "empty"}
	if m.Sparsity() != 0 {
		t.Fatal("empty model sparsity should be 0")
	}
	if m.Params() != 0 || m.NNZ() != 0 {
		t.Fatal("empty model should have no params")
	}
}

func TestPrunableConvsRespectsNoPrune(t *testing.T) {
	b := NewBuilder("np", 3, 8, 8, 1)
	x := b.Input()
	c1 := b.Conv("c1", x, 3, 4, 3, 1, 1, false)
	c2 := b.Conv("c2", c1, 4, 4, 3, 1, 1, false)
	b.NoPrune(c2)
	b.Detect("d", c2)
	m := b.MustBuild()
	prunable := PrunableConvs(m)
	// c2 is both NoPrune and a Detect input; only c1 remains.
	if len(prunable) != 1 || prunable[0].ID != c1 {
		t.Fatalf("prunable %v", prunable)
	}
}

func TestInferShapesErrors(t *testing.T) {
	// BN channel mismatch.
	b := NewBuilder("e1", 3, 8, 8, 1)
	x := b.Input()
	c := b.Conv("c", x, 3, 4, 3, 1, 1, false)
	b.m.Layers = append(b.m.Layers, &Layer{
		ID: len(b.m.Layers), Name: "bn", Kind: BatchNorm, Inputs: []int{c},
		Gamma: make([]float32, 7), Beta: make([]float32, 7),
	})
	if _, err := b.m.InferShapes(); err == nil {
		t.Error("expected BN channel mismatch")
	}

	// Concat spatial mismatch.
	b2 := NewBuilder("e2", 3, 8, 8, 1)
	y := b2.Input()
	a1 := b2.Conv("a1", y, 3, 4, 3, 1, 1, false) // 8x8
	a2 := b2.Conv("a2", y, 3, 4, 3, 2, 1, false) // 4x4
	b2.Concat("cat", a1, a2)
	if _, err := b2.m.InferShapes(); err == nil {
		t.Error("expected concat spatial mismatch")
	}

	// Add shape mismatch.
	b3 := NewBuilder("e3", 3, 8, 8, 1)
	z := b3.Input()
	m1 := b3.Conv("m1", z, 3, 4, 3, 1, 1, false)
	m2 := b3.Conv("m2", z, 3, 8, 3, 1, 1, false)
	b3.Add("add", m1, m2)
	if _, err := b3.m.InferShapes(); err == nil {
		t.Error("expected add shape mismatch")
	}
}

func TestBuilderInputMustBeFirst(t *testing.T) {
	b := NewBuilder("x", 3, 8, 8, 1)
	b.Input()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for second Input")
		}
	}()
	b.Input()
}
