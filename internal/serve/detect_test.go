package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/tensor"
)

// tinySpec matches tinyProgram's 14-channel head: 2 anchors x (5 + 2
// classes) at the model's stride-4 output grid.
func tinySpec() detect.HeadSpec {
	return detect.HeadSpec{
		Kind:    detect.HeadYOLOv5,
		Classes: 2,
		Levels:  []detect.HeadLevel{{Stride: 4, Anchors: [][2]float64{{8, 8}, {16, 16}}}},
	}
}

// TestHTTPDetect drives POST /detect end to end with a PPM body and
// cross-checks the response against the library pipeline.
func TestHTTPDetect(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	defer s.Close()
	cfg := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32,
		Detect: cfg,
		Labels: []string{"car", "pedestrian"},
	}))
	defer ts.Close()

	// A deterministic non-square source image exercises letterboxing.
	img := tensor.New(3, 24, 48)
	for i := range img.Data {
		img.Data[i] = float32(i%17) / 17
	}
	var ppm bytes.Buffer
	if err := tensor.EncodePPM(&ppm, img); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/detect", "image/x-portable-pixmap", bytes.NewReader(ppm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var got struct {
		Detections []struct {
			Box   []float64 `json:"box"`
			Class int       `json:"class"`
			Label string    `json:"label"`
			Score float64   `json:"score"`
		} `json:"detections"`
		Count    int `json:"count"`
		Image    map[string]int
		TimingMS map[string]float64 `json:"timing_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Image["width"] != 48 || got.Image["height"] != 24 {
		t.Errorf("image dims = %v, want 48x24", got.Image)
	}
	if got.Count != len(got.Detections) {
		t.Errorf("count %d != len(detections) %d", got.Count, len(got.Detections))
	}
	for _, k := range []string{"ingest", "preprocess", "forward", "decode", "total"} {
		if _, ok := got.TimingMS[k]; !ok {
			t.Errorf("timing_ms missing %q", k)
		}
	}

	// Cross-check against the library pipeline on the decoded image.
	decoded, err := tensor.DecodeImage(bytes.NewReader(ppm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	canvas, meta := tensor.LetterboxImage(decoded, 32, 32, tensor.LetterboxFill)
	heads, err := p.Heads(canvas.Reshape(1, 3, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.Postprocess(heads, meta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != got.Count {
		t.Fatalf("served %d detections, library pipeline %d", got.Count, len(want))
	}
	for i, d := range got.Detections {
		w := want[i]
		if d.Class != w.Class {
			t.Errorf("det %d class %d, want %d", i, d.Class, w.Class)
		}
		if diff := d.Score - w.Score; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("det %d score %v, want %v", i, d.Score, w.Score)
		}
		for j, v := range []float64{w.Box.X1, w.Box.Y1, w.Box.X2, w.Box.Y2} {
			if diff := d.Box[j] - v; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("det %d box[%d] = %v, want %v", i, j, d.Box[j], v)
			}
		}
		if d.Class < 2 && d.Label == "" {
			t.Errorf("det %d has no label", i)
		}
	}

	// Garbage body is a 400.
	resp, err = http.Post(ts.URL+"/detect", "image/png", bytes.NewReader([]byte("not an image")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage image: status %d, want 400", resp.StatusCode)
	}

	// Bad threshold overrides are 400s — including an explicit 0, which
	// detect.Config cannot distinguish from "use the default".
	for _, q := range []string{"score=wat", "score=0", "iou=1.5"} {
		resp, err = http.Post(ts.URL+"/detect?"+q, "image/x-portable-pixmap", bytes.NewReader(ppm.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestServerDetectMatchesPipeline checks the batched detection path —
// encoded bytes through Server.Detect, preprocess+forward+postprocess
// on the executors — returns exactly what the library pipeline
// computes, and that the per-stage stats counters advance.
func TestServerDetectMatchesPipeline(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}

	img := tensor.New(3, 24, 48)
	for i := range img.Data {
		img.Data[i] = float32(i%13) / 13
	}
	var ppm bytes.Buffer
	if err := tensor.EncodePPM(&ppm, img); err != nil {
		t.Fatal(err)
	}

	res, err := s.Detect(ppm.Bytes(), pipe, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.SrcW != 48 || res.SrcH != 24 {
		t.Errorf("source dims = %dx%d, want 48x24", res.SrcW, res.SrcH)
	}
	if res.Timing.Preprocess <= 0 || res.Timing.Forward <= 0 || res.Timing.Decode <= 0 {
		t.Errorf("incomplete timing breakdown: %+v", res.Timing)
	}

	// The library pipeline on the decoded bytes must agree bitwise.
	decoded, err := tensor.DecodeImage(bytes.NewReader(ppm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	canvas, meta := tensor.LetterboxImage(decoded, 32, 32, tensor.LetterboxFill)
	heads, err := p.Heads(canvas.Reshape(1, 3, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.Postprocess(heads, meta, pipe)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) != len(want) {
		t.Fatalf("served %d detections, library %d", len(res.Detections), len(want))
	}
	for i := range want {
		if res.Detections[i] != want[i] {
			t.Errorf("det %d: served %+v != library %+v", i, res.Detections[i], want[i])
		}
	}
	for i := 1; i < len(res.Detections); i++ {
		if res.Detections[i].Score > res.Detections[i-1].Score {
			t.Errorf("det %d breaks the descending-score contract", i)
		}
	}

	st := s.Stats()
	if st.Detects != 1 {
		t.Errorf("stats detects = %d, want 1", st.Detects)
	}
	if st.Candidates == 0 || st.Boxes != uint64(len(res.Detections)) {
		t.Errorf("stats candidates=%d boxes=%d, want >0 and %d", st.Candidates, st.Boxes, len(res.Detections))
	}
	if st.AvgPreprocess <= 0 || st.AvgDecode <= 0 || st.AvgNMS <= 0 {
		t.Errorf("per-stage averages missing: %+v", st)
	}
}

// TestServerDetectValidation pins the request-validation and bad-image
// error paths of the batched detection entry points.
func TestServerDetectValidation(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	defer s.Close()

	if _, err := s.Detect([]byte("x"), detect.Config{}, 32, 32); err == nil {
		t.Error("Detect without a head spec accepted")
	}
	pipe := detect.Config{Spec: tinySpec()}
	if _, err := s.Detect([]byte("x"), pipe, 30, 32); err == nil {
		t.Error("resolution 30 (not a multiple of the stride-4 head) accepted")
	}
	if _, err := s.Detect([]byte("not an image"), pipe, 32, 32); !errors.Is(err, ErrBadImage) {
		t.Errorf("garbage bytes: err = %v, want ErrBadImage", err)
	}
	// A bad image in a batch must not fail its neighbours: mix one
	// garbage request with valid ones under a single slow worker.
	srv := NewServer(p, Config{MaxBatch: 8, MaxDelay: 50 * time.Millisecond, Workers: 1})
	defer srv.Close()
	img := tensor.New(3, 16, 16)
	var ppm bytes.Buffer
	if err := tensor.EncodePPM(&ppm, img); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := ppm.Bytes()
			if i == 2 {
				body = []byte("garbage")
			}
			_, errs[i] = srv.Detect(body, pipe, 32, 32)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if i == 2 {
			if !errors.Is(err, ErrBadImage) {
				t.Errorf("garbage request: err = %v, want ErrBadImage", err)
			}
		} else if err != nil {
			t.Errorf("valid request %d failed alongside a garbage one: %v", i, err)
		}
	}
	// After Close, Detect and a non-blocking DetectFrame reject like
	// the other verbs.
	srv2 := NewServer(p, Config{})
	srv2.Close()
	if _, err := srv2.Detect(ppm.Bytes(), pipe, 32, 32); !errors.Is(err, ErrClosed) {
		t.Errorf("Detect after Close = %v, want ErrClosed", err)
	}
	if _, err := srv2.DetectFrame(ppm.Bytes(), pipe, 32, 32, FrameOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("DetectFrame after Close = %v, want ErrClosed", err)
	}
}

// BenchmarkServerDetect measures the batched detection path end to end
// on the tiny detector: encoded PPM bytes in, boxes out, through the
// micro-batching queue.
func BenchmarkServerDetect(b *testing.B) {
	p := tinyProgram(b)
	s := NewServer(p, Config{})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}
	img := tensor.New(3, 24, 48)
	for i := range img.Data {
		img.Data[i] = float32(i%13) / 13
	}
	var ppm bytes.Buffer
	if err := tensor.EncodePPM(&ppm, img); err != nil {
		b.Fatal(err)
	}
	body := ppm.Bytes()
	if _, err := s.Detect(body, pipe, 32, 32); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Detect(body, pipe, 32, 32); err != nil {
			b.Fatal(err)
		}
	}
}
