package serve

// registry_test.go covers the per-shard memory budgeting / LRU
// eviction added for the serving fleet, and the gob Program snapshot
// used for warm handoff between shards.

import (
	"bytes"
	"encoding/gob"
	"sync"
	"testing"

	"rtoss/internal/engine"
	"rtoss/internal/nn"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// testKey builds distinct keys for registry tests; the arch names are
// fake because the programs are installed, never built from the zoo.
func testKey(arch string) Key { return Key{Arch: arch, Variant: "dense", Mode: engine.ModeSparse} }

func TestRegistryLRUEviction(t *testing.T) {
	r := NewRegistry()
	var evicted []Key
	var mu sync.Mutex
	r.OnEvict(func(k Key, _ *engine.Program) {
		mu.Lock()
		evicted = append(evicted, k)
		mu.Unlock()
	})

	progs := map[string]*engine.Program{}
	for _, arch := range []string{"A", "B", "C"} {
		progs[arch] = tinyProgram(t)
	}
	one := progs["A"].MemoryBytes()
	if one <= 0 {
		t.Fatalf("MemoryBytes = %d, want > 0", one)
	}
	// Budget for two programs: installing a third must evict the LRU.
	r.SetBudget(2*one + one/2)

	for _, arch := range []string{"A", "B"} {
		if _, err := r.Install(testKey(arch), progs[arch]); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A so B becomes the least recently used.
	if _, err := r.Install(testKey("A"), progs["A"]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Install(testKey("C"), progs["C"]); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted[0] != testKey("B") {
		t.Fatalf("evicted %v, want exactly [B]", evicted)
	}
	bytes, evictions := r.Footprint()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if bytes != 2*one {
		t.Fatalf("footprint = %d, want %d (two programs)", bytes, 2*one)
	}
	keys := r.Keys()
	if len(keys) != 2 || keys[0] != testKey("A") || keys[1] != testKey("C") {
		t.Fatalf("surviving keys %v, want [A C]", keys)
	}
}

func TestRegistryNeverEvictsTheKeyBeingServed(t *testing.T) {
	r := NewRegistry()
	prog := tinyProgram(t)
	// A budget below one program: the sole entry must still serve.
	r.SetBudget(1)
	got, err := r.Install(testKey("A"), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got != prog {
		t.Fatal("Install returned a different program")
	}
	if keys := r.Keys(); len(keys) != 1 {
		t.Fatalf("keys %v, want the in-flight key to survive", keys)
	}
}

func TestRegistryShrinkingBudgetEvicts(t *testing.T) {
	r := NewRegistry()
	a, b := tinyProgram(t), tinyProgram(t)
	if _, err := r.Install(testKey("A"), a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Install(testKey("B"), b); err != nil {
		t.Fatal(err)
	}
	r.SetBudget(a.MemoryBytes() + 1)
	if keys := r.Keys(); len(keys) != 1 || keys[0] != testKey("B") {
		t.Fatalf("keys after shrink %v, want [B] (A was LRU)", keys)
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	for _, k := range []Key{
		{Arch: "YOLOv5s", Variant: "rtoss-3ep", Mode: engine.ModeSparse},
		{Arch: "RetinaNet", Variant: "dense", Mode: engine.ModeAuto},
	} {
		got, err := ParseKey(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("ParseKey(%q) = %v", k.String(), got)
		}
	}
	for _, bad := range []string{"", "a/b", "YOLOv5s/nope/sparse", "YOLOv5s/dense/warp"} {
		if _, err := ParseKey(bad); err == nil {
			t.Fatalf("ParseKey(%q) succeeded, want error", bad)
		}
	}
}

// TestSnapshotRoundTripBitwise proves the warm handoff preserves
// behaviour exactly: a Program decoded from a peer's snapshot computes
// bitwise-identical outputs to the donor.
func TestSnapshotRoundTripBitwise(t *testing.T) {
	donor := tinyProgram(t)
	k := testKey("tiny")
	data, err := EncodeSnapshot(k, donor)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := DecodeSnapshot(k, data)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Mode() != donor.Mode() {
		t.Fatalf("mode %v, want %v", joined.Mode(), donor.Mode())
	}

	in := testImage(17)
	want, err := donor.Output(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := joined.Output(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("output sizes differ: %d vs %d", len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("output[%d] = %v, donor computed %v (snapshot not bitwise)", i, got.Data[i], want.Data[i])
		}
	}

	// Key mismatch must fail loudly, not compile the wrong model.
	if _, err := DecodeSnapshot(testKey("other"), data); err == nil {
		t.Fatal("DecodeSnapshot accepted a mismatched key")
	}
	// Corrupt payloads must fail, not panic.
	if _, err := DecodeSnapshot(k, data[:len(data)/2]); err == nil {
		t.Fatal("DecodeSnapshot accepted a truncated snapshot")
	}
}

// TestDecodeSnapshotRejectsMalformedLayers checks that a peer snapshot
// whose model carries a zero-kernel or zero-stride max-pool, or a conv
// bias of the wrong length, fails to decode. Compiling such a model
// succeeds, so without the check the shard would install a Program
// whose every forward fails (a zero pool stride divides by zero).
func TestDecodeSnapshotRejectsMalformedLayers(t *testing.T) {
	build := func() *nn.Model {
		b := nn.NewBuilder("pooldet", 3, 32, 32, 2)
		x := b.Input()
		x = b.ConvBNAct("stem", x, 3, 8, 3, 2, 1, nn.SiLU)
		x = b.MaxPool("mp", x, 5, 1, 2)
		b.Detect("detect", b.Conv("head", x, 8, 14, 1, 1, 0, true))
		m := b.MustBuild()
		m.InitWeights(4)
		return m
	}
	layer := func(m *nn.Model, name string) *nn.Layer {
		for _, l := range m.Layers {
			if l.Name == name {
				return l
			}
		}
		t.Fatalf("model has no layer %q", name)
		return nil
	}
	k := testKey("pooldet")
	for _, tc := range []struct {
		name    string
		corrupt func(m *nn.Model)
	}{
		{"pool-zero-stride", func(m *nn.Model) { layer(m, "mp").PoolStride = 0 }},
		{"pool-zero-kernel", func(m *nn.Model) { layer(m, "mp").PoolK = 0 }},
		{"conv-short-bias", func(m *nn.Model) { h := layer(m, "head"); h.Bias = h.Bias[:len(h.Bias)-1] }},
	} {
		m := build()
		tc.corrupt(m)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(programSnapshot{Key: k.String(), Mode: engine.ModeDense, Model: m}); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(k, buf.Bytes()); err == nil {
			t.Errorf("%s: DecodeSnapshot accepted the malformed model", tc.name)
		}
	}
}

// TestTensorGobRoundTrip pins the tensor wire format underneath the
// snapshot: shape, strides (derived) and bits all survive.
func TestTensorGobRoundTrip(t *testing.T) {
	r := rng.New(5)
	src := tensor.New(2, 3, 4, 5)
	for i := range src.Data {
		src.Data[i] = float32(r.Range(-10, 10))
	}
	raw, err := src.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var dst tensor.Tensor
	if err := dst.GobDecode(raw); err != nil {
		t.Fatal(err)
	}
	if dst.Rank() != 4 || dst.Dim(0) != 2 || dst.Dim(1) != 3 || dst.Dim(2) != 4 || dst.Dim(3) != 5 {
		t.Fatalf("decoded shape %v", dst.Shape())
	}
	for i := range src.Data {
		if dst.Data[i] != src.Data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, dst.Data[i], src.Data[i])
		}
	}
	var bad tensor.Tensor
	if err := bad.GobDecode(raw[:3]); err == nil {
		t.Fatal("GobDecode accepted a truncated header")
	}
}
