package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rtoss/internal/core"
	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/nn"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// tinyProgram compiles a small pruned detector so server tests don't
// pay for zoo-scale models.
func tinyProgram(t testing.TB) *engine.Program {
	t.Helper()
	b := nn.NewBuilder("tinydet", 3, 32, 32, 2)
	x := b.Input()
	x = b.ConvBNAct("stem", x, 3, 8, 3, 2, 1, nn.SiLU)
	c3 := b.C3("c3", x, 8, 8, 1, true, nn.SiLU)
	x = b.ConvBNAct("down", c3, 8, 16, 3, 2, 1, nn.SiLU)
	head := b.Conv("head", x, 16, 14, 1, 1, 0, true)
	b.Detect("detect", head)
	m := b.MustBuild()
	m.InitWeights(3)
	if _, err := core.NewVariant(3).Prune(m); err != nil {
		t.Fatal(err)
	}
	p, err := engine.Compile(m, engine.Options{Mode: engine.ModeSparse})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testImage(seed uint64) *tensor.Tensor {
	r := rng.New(seed)
	in := tensor.New(1, 3, 32, 32)
	for i := range in.Data {
		in.Data[i] = float32(r.Range(-1, 1))
	}
	return in
}

// testPPM encodes a deterministic pseudo-random h x w image as PPM.
func testPPM(t testing.TB, seed uint64, h, w int) []byte {
	t.Helper()
	r := rng.New(seed)
	img := tensor.New(3, h, w)
	for i := range img.Data {
		img.Data[i] = float32(r.Range(0, 1))
	}
	var buf bytes.Buffer
	if err := tensor.EncodePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pipelineDetect runs the in-process pipeline Server.Detect batches on
// its executors: decode, letterbox, Heads, Postprocess.
func pipelineDetect(t testing.TB, p *engine.Program, body []byte, pipe detect.Config, resH, resW int) []detect.Detection {
	t.Helper()
	img, err := tensor.DecodeImage(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	canvas, meta := tensor.LetterboxImage(img, resH, resW, tensor.LetterboxFill)
	heads, err := p.Heads(canvas.Reshape(1, 3, resH, resW))
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.Postprocess(heads, meta, pipe)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkDetections compares served detections against the pipeline's.
// A batched forward may sum in a different order than a single-image
// one, so scores and box corners get a small tolerance.
func checkDetections(t *testing.T, name string, got, want []detect.Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: served %d detections, pipeline %d", name, len(got), len(want))
		return
	}
	for i, w := range want {
		g := got[i]
		if g.Class != w.Class || math.Abs(g.Score-w.Score) > 1e-5 ||
			math.Abs(g.Box.X1-w.Box.X1) > 1e-3 || math.Abs(g.Box.Y1-w.Box.Y1) > 1e-3 ||
			math.Abs(g.Box.X2-w.Box.X2) > 1e-3 || math.Abs(g.Box.Y2-w.Box.Y2) > 1e-3 {
			t.Errorf("%s: det %d served %+v, pipeline %+v", name, i, g, w)
		}
	}
}

// TestServerMatchesDirectOutput checks served detection returns what
// the in-process pipeline computes, per image, under concurrency.
func TestServerMatchesDirectOutput(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{MaxBatch: 4, MaxDelay: 5 * time.Millisecond})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]*detect.Result, n)
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = testPPM(t, uint64(100+i), 24, 48)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Detect(bodies[i], pipe, 32, 32)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		checkDetections(t, fmt.Sprintf("request %d", i), outs[i].Detections, pipelineDetect(t, p, bodies[i], pipe, 32, 32))
	}
	st := s.Stats()
	if st.Requests != n || st.Completed != n || st.Errors != 0 {
		t.Errorf("stats requests=%d completed=%d errors=%d, want %d/%d/0", st.Requests, st.Completed, st.Errors, n, n)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Errorf("stats batches=%d out of range", st.Batches)
	}
	if st.AvgLatency <= 0 || st.MaxLatency < st.AvgLatency {
		t.Errorf("stats latency avg=%v max=%v inconsistent", st.AvgLatency, st.MaxLatency)
	}
}

// TestServerMicroBatches checks the scheduler actually coalesces
// concurrent requests instead of running them one by one.
func TestServerMicroBatches(t *testing.T) {
	p := tinyProgram(t)
	// One worker and a generous delay: concurrent requests must pile up
	// into shared batches.
	s := NewServer(p, Config{MaxBatch: 8, MaxDelay: 50 * time.Millisecond, Workers: 1})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec()}
	body := testPPM(t, 7, 32, 32)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Detect(body, pipe, 32, 32); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.AvgBatch <= 1.5 {
		t.Errorf("avg batch %.2f: micro-batching coalesced almost nothing", st.AvgBatch)
	}
	if st.MaxBatch > 8 {
		t.Errorf("max batch %d exceeds configured cap 8", st.MaxBatch)
	}
}

// TestServerMixedShapesPartition checks requests for different (legal)
// canvas sizes co-exist in one queue: batches are partitioned by canvas
// size, and an undecodable request fails alone instead of poisoning the
// valid requests it was coalesced with.
func TestServerMixedShapesPartition(t *testing.T) {
	p := tinyProgram(t)
	// One slow worker and a generous delay force mixed-shape coalescing.
	s := NewServer(p, Config{MaxBatch: 16, MaxDelay: 50 * time.Millisecond, Workers: 1})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}

	body := testPPM(t, 31, 24, 48)
	wantSmall := pipelineDetect(t, p, body, pipe, 32, 32)
	wantBig := pipelineDetect(t, p, body, pipe, 64, 64)

	type result struct {
		res *detect.Result
		err error
	}
	reqs := []struct {
		body []byte
		res  int
	}{{body, 32}, {body, 64}, {[]byte("not an image"), 32}, {body, 32}, {body, 64}}
	results := make([]result, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, body []byte, res int) {
			defer wg.Done()
			out, err := s.Detect(body, pipe, res, res)
			results[i] = result{out, err}
		}(i, rq.body, rq.res)
	}
	wg.Wait()

	for _, i := range []int{0, 3} {
		if results[i].err != nil {
			t.Fatalf("32x32 request %d failed: %v", i, results[i].err)
		}
		checkDetections(t, fmt.Sprintf("32x32 request %d", i), results[i].res.Detections, wantSmall)
	}
	for _, i := range []int{1, 4} {
		if results[i].err != nil {
			t.Fatalf("64x64 request %d failed: %v", i, results[i].err)
		}
		checkDetections(t, fmt.Sprintf("64x64 request %d", i), results[i].res.Detections, wantBig)
	}
	if !errors.Is(results[2].err, ErrBadImage) {
		t.Errorf("undecodable request: err = %v, want ErrBadImage", results[2].err)
	}
}

// TestServerCloseSemantics: Close is idempotent, pending work drains,
// and post-close submissions are rejected.
func TestServerCloseSemantics(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	pipe := detect.Config{Spec: tinySpec()}
	body := testPPM(t, 9, 32, 32)
	if _, err := s.Detect(body, pipe, 32, 32); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Detect(body, pipe, 32, 32); err != ErrClosed {
		t.Fatalf("Detect after Close = %v, want ErrClosed", err)
	}
	if _, err := s.DetectFrame(body, pipe, 32, 32, FrameOptions{}); err != ErrClosed {
		t.Fatalf("non-blocking DetectFrame after Close = %v, want ErrClosed", err)
	}
}

// TestDetectFrameShedsLoad fills the queue of a server whose workers
// never started (internal construction) and checks a non-blocking
// DetectFrame rejects instead of blocking.
func TestDetectFrameShedsLoad(t *testing.T) {
	p := tinyProgram(t)
	s := &Server{prog: p, cfg: Config{QueueCap: 1}.withDefaults(), queue: make(chan *request, 1)}
	s.queue <- &request{} // saturate
	pipe := detect.Config{Spec: tinySpec()}
	if _, err := s.DetectFrame(testPPM(t, 11, 32, 32), pipe, 32, 32, FrameOptions{}); err != ErrQueueFull {
		t.Fatalf("DetectFrame on a full queue = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

func TestParseVariant(t *testing.T) {
	cases := []struct {
		in      string
		entries int
		ok      bool
	}{
		{"dense", 0, true}, {"rtoss-2ep", 2, true}, {"rtoss-5ep", 5, true},
		{"rtoss-6ep", 0, false}, {"rtoss-1ep", 0, false}, {"rtoss", 0, false},
		{"", 0, false}, {"RTOSS-3EP", 0, false},
	}
	for _, c := range cases {
		n, err := ParseVariant(c.in)
		if (err == nil) != c.ok || n != c.entries {
			t.Errorf("ParseVariant(%q) = (%d, %v), want (%d, ok=%v)", c.in, n, err, c.entries, c.ok)
		}
	}
}

// TestRegistrySingleBuild checks concurrent requests for one key share
// a single build and get the identical Program.
func TestRegistrySingleBuild(t *testing.T) {
	reg := NewRegistry()
	key := Key{Arch: "YOLOv5s", Variant: "dense", Mode: engine.ModeDense}
	const n = 4
	progs := make([]*engine.Program, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i], errs[i] = reg.Program(key)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if progs[i] != progs[0] {
			t.Fatal("concurrent requests built distinct Programs for one key")
		}
	}
	if ks := reg.Keys(); len(ks) != 1 || ks[0] != key {
		t.Fatalf("Keys() = %v, want [%v]", ks, key)
	}
	if _, err := reg.Program(Key{Arch: "nope", Variant: "dense"}); err == nil {
		t.Fatal("unknown architecture should error")
	}
	if _, err := reg.Program(Key{Arch: "YOLOv5s", Variant: "magic"}); err == nil {
		t.Fatal("unknown variant should error")
	}
}

// TestHTTPHandler exercises the wire protocol end to end: /healthz,
// /detect and the /stats counters it advances.
func TestHTTPHandler(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32, Detect: detect.Config{Spec: tinySpec()},
	}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	for seed := uint64(21); seed < 23; seed++ {
		resp, err = http.Post(ts.URL+"/detect", "image/x-portable-pixmap", bytes.NewReader(testPPM(t, seed, 32, 32)))
		if err != nil {
			t.Fatal(err)
		}
		var got DetectResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || got.Image.Width != 32 || got.Image.Height != 32 {
			t.Fatalf("detect: status %d image %+v, want 200 and 32x32", resp.StatusCode, got.Image)
		}
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["requests"].(float64) < 2 || stats["detects"].(float64) < 2 {
		t.Errorf("stats requests = %v detects = %v, want >= 2", stats["requests"], stats["detects"])
	}
}
