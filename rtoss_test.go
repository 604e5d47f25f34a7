package rtoss

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Integration tests over the public facade: the complete pipelines a
// downstream user would run, exercised through the exported API only.

func TestPublicPruneEvaluatePipeline(t *testing.T) {
	m := NewYOLOv5s()
	base := m.Clone()
	res, err := NewRTOSS(2).Prune(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CompressionRatio()-4.4) > 0.3 {
		t.Errorf("compression %.2f, paper 4.4", res.CompressionRatio())
	}
	q := Assess(base, m, res)
	if q.MAP <= 0 || q.MAP > 99 {
		t.Errorf("surrogate mAP %v out of range", q.MAP)
	}
	for _, p := range []Platform{RTX2080Ti(), JetsonTX2()} {
		baseCost, err := Estimate(base, p, Dense)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := Estimate(m, p, res.Structure)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Speedup(baseCost) <= 1.3 {
			t.Errorf("%s speedup %.2f too low", p.Name, cost.Speedup(baseCost))
		}
	}
}

func TestPublicBaselines(t *testing.T) {
	bs := Baselines()
	if len(bs) != 5 {
		t.Fatalf("baselines %d, want 5", len(bs))
	}
	m := NewYOLOv5s()
	res, err := bs[0].Prune(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparsity() <= 0 {
		t.Error("baseline pruned nothing")
	}
}

func TestPublicEncode(t *testing.T) {
	m := NewYOLOv5s()
	res, err := NewRTOSS(3).Prune(m)
	if err != nil {
		t.Fatal(err)
	}
	enc := Encode(m, res.Structure)
	if enc.CompressionRatio() <= 1.5 {
		t.Errorf("encoded compression %.2f too low", enc.CompressionRatio())
	}
}

func TestPublicForward(t *testing.T) {
	// Real execution through the facade on a reduced-resolution input.
	m := NewYOLOv5s()
	m.InputH, m.InputW = 64, 64
	input := NewTensor(1, 3, 64, 64)
	for i := range input.Data {
		input.Data[i] = float32(i%13)/13 - 0.5
	}
	out, err := Forward(m, input)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("empty forward output")
	}
}

func TestPublicCanonicalPatterns(t *testing.T) {
	total := len(CanonicalPatterns(2).Masks) + len(CanonicalPatterns(3).Masks)
	if total != 21 {
		t.Errorf("canonical patterns %d, paper says 21", total)
	}
}

func TestPublicKITTIPipeline(t *testing.T) {
	scenes := KITTIScenes(5, 20)
	if len(scenes) != 20 {
		t.Fatalf("scenes %d", len(scenes))
	}
	good := SceneMAP(scenes, 1.0, 3)
	bad := SceneMAP(scenes, 0.7, 3)
	if good <= bad {
		t.Errorf("scene mAP ordering broken: %.3f vs %.3f", good, bad)
	}
}

func TestPublicAblationConfig(t *testing.T) {
	f, err := NewRTOSSWithConfig(RTOSSConfig{Entries: 3, UseDFSGrouping: false, Transform1x1: true})
	if err != nil {
		t.Fatal(err)
	}
	m := NewYOLOv5s()
	res, err := f.Prune(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.InheritedKernels != 0 {
		t.Error("grouping disabled but kernels inherited")
	}
	if _, err := NewRTOSSWithConfig(RTOSSConfig{Entries: 9}); err == nil {
		t.Error("expected error for 9-entry config")
	}
}

func TestPublicEngineModes(t *testing.T) {
	m := NewYOLOv5s()
	if _, err := NewRTOSS(2).Prune(m); err != nil {
		t.Fatal(err)
	}
	input := NewTensor(1, 3, 64, 64)
	for i := range input.Data {
		input.Data[i] = float32(i%17)/17 - 0.5
	}
	dense, err := CompileProgram(m, EngineOptions{Mode: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	want, err := dense.Output(input)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := CompileProgram(m, EngineOptions{Mode: EngineSparse})
	if err != nil {
		t.Fatal(err)
	}
	if p, c := sparse.SparseLayers(); p == 0 || c == 0 {
		t.Fatalf("sparse engine compiled %d pattern / %d csr layers on a pruned model", p, c)
	}
	got, err := sparse.Output(input)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameShape(want) {
		t.Fatalf("sparse output shape %v, dense %v", got.Shape(), want.Shape())
	}
	for i := range got.Data {
		if d := got.Data[i] - want.Data[i]; d < -1e-5 || d > 1e-5 {
			t.Fatalf("sparse output diverges from dense at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
	if _, err := ParseEngineMode("nonsense"); err == nil {
		t.Error("expected error for unknown engine mode")
	}
}

func TestPublicServeAPI(t *testing.T) {
	reg := NewServeRegistry()
	key := ServeKey{Arch: "YOLOv5s", Variant: "dense", Mode: EngineDense}
	prog, err := reg.Program(key)
	if err != nil {
		t.Fatal(err)
	}
	again, err := reg.Program(key)
	if err != nil {
		t.Fatal(err)
	}
	if prog != again {
		t.Fatal("registry rebuilt a cached Program")
	}
	det, err := NewDetector(prog, 64, DetectConfig{ScoreThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := EncodePPM(&img, KITTISampleImage(124, 40)); err != nil {
		t.Fatal(err)
	}
	want, err := det.DetectBytes(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(prog, ServeConfig{MaxBatch: 2})
	defer srv.Close()
	got, err := srv.Detect(img.Bytes(), det.Config(), 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcW != want.SrcW || got.SrcH != want.SrcH || len(got.Detections) != len(want.Detections) {
		t.Fatalf("served %dx%d with %d detections, Detector %dx%d with %d",
			got.SrcW, got.SrcH, len(got.Detections), want.SrcW, want.SrcH, len(want.Detections))
	}
	for i, w := range want.Detections {
		if got.Detections[i] != w {
			t.Errorf("det %d: served %+v, Detector %+v", i, got.Detections[i], w)
		}
	}
	if st := srv.Stats(); st.Requests != 1 || st.Completed != 1 || st.Detects != 1 {
		t.Fatalf("stats = %+v, want 1 request completed and detected", st)
	}
}

func TestPublicTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow analytic table regeneration in -short mode")
	}
	for _, fn := range []func() (*Table, error){Table1, Table2, Table3} {
		tab, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 || !strings.Contains(tab.Render(), "|") {
			t.Error("table did not render")
		}
	}
}
