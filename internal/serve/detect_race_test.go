package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"rtoss/internal/detect"
	"rtoss/internal/tensor"
)

// detect_race_test.go stresses the detection endpoint under real
// concurrency (this package runs under -race in CI): many goroutines
// POST /detect against one shared Server with mixed threshold
// overrides, so the handler's per-request config copy, the co-batched
// heads path and the stats counters all get exercised at once.

// samplePPM encodes a deterministic non-square test image once.
func samplePPM(t testing.TB) []byte {
	t.Helper()
	img := tensor.New(3, 24, 48)
	for i := range img.Data {
		img.Data[i] = float32(i%23) / 23
	}
	var buf bytes.Buffer
	if err := tensor.EncodePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentDetectRequests drives one shared Server with parallel
// /detect POSTs using a mix of ?score/?iou overrides. Every response
// must be well-formed, and requests with the same override must agree
// with each other (the per-request config copy may not leak across
// requests).
func TestConcurrentDetectRequests(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{MaxBatch: 4, Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32,
		Detect: detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05},
		Labels: []string{"car", "pedestrian"},
	}))
	defer ts.Close()
	ppm := samplePPM(t)

	queries := []string{"", "?score=0.05", "?score=0.5", "?iou=0.9", "?score=0.05&iou=0.2"}
	const rounds = 4
	type result struct {
		query string
		resp  DetectResponse
	}
	results := make([]result, len(queries)*rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for qi, q := range queries {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/detect"+q, "application/octet-stream", bytes.NewReader(ppm))
				if err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%q: status %d", q, resp.StatusCode)
					return
				}
				var body DetectResponse
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				results[i] = result{query: q, resp: body}
			}(r*len(queries)+qi, q)
		}
	}
	wg.Wait()

	// Group responses by query: all rounds of one query must agree
	// exactly; the no-override and low-threshold queries must see at
	// least as many boxes as the high-threshold one.
	byQuery := map[string][]DetectResponse{}
	for _, r := range results {
		byQuery[r.query] = append(byQuery[r.query], r.resp)
	}
	for q, rs := range byQuery {
		if len(rs) != rounds {
			t.Fatalf("%q: %d results, want %d", q, len(rs), rounds)
		}
		for i := 1; i < rounds; i++ {
			if rs[i].Count != rs[0].Count {
				t.Errorf("%q: round %d returned %d detections, round 0 %d — override leaked across requests",
					q, i, rs[i].Count, rs[0].Count)
			}
			for j := range rs[i].Detections {
				if rs[i].Detections[j] != rs[0].Detections[j] {
					t.Errorf("%q: round %d detection %d differs from round 0", q, i, j)
				}
			}
		}
		if rs[0].Image.Width != 48 || rs[0].Image.Height != 24 {
			t.Errorf("%q: image %dx%d, want 48x24", q, rs[0].Image.Width, rs[0].Image.Height)
		}
	}
	if strict, loose := byQuery["?score=0.5"][0].Count, byQuery["?score=0.05"][0].Count; strict > loose {
		t.Errorf("score=0.5 returned %d detections but score=0.05 only %d", strict, loose)
	}
	if st := s.Stats(); st.Errors != 0 {
		t.Errorf("server recorded %d errors under concurrent /detect", st.Errors)
	}
}

// TestDetectHandlerErrorPaths is the table-driven contract of the
// endpoint's failure modes: threshold overrides outside (0, 1] and
// undecodable bodies are 400s, and a saturated queue is a 503 when
// load shedding is on.
func TestDetectHandlerErrorPaths(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32,
		Detect: detect.Config{Spec: tinySpec()},
	}))
	defer ts.Close()
	ppm := samplePPM(t)

	cases := []struct {
		name  string
		query string
		body  []byte
		want  int
	}{
		{"ok", "", ppm, http.StatusOK},
		{"score zero", "?score=0", ppm, http.StatusBadRequest},
		{"score negative", "?score=-0.5", ppm, http.StatusBadRequest},
		{"score above one", "?score=1.5", ppm, http.StatusBadRequest},
		{"score not a number", "?score=wat", ppm, http.StatusBadRequest},
		{"score infinity", "?score=Inf", ppm, http.StatusBadRequest},
		{"iou zero", "?iou=0", ppm, http.StatusBadRequest},
		{"iou above one", "?iou=1.0001", ppm, http.StatusBadRequest},
		{"iou garbage", "?iou=%23", ppm, http.StatusBadRequest},
		{"empty body", "", nil, http.StatusBadRequest},
		{"garbage body", "", []byte("definitely not an image"), http.StatusBadRequest},
		{"truncated ppm", "", ppm[:20], http.StatusBadRequest},
		{"hostile dims", "", []byte("P6\n999999999 999999999\n255\n"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/detect"+tc.query, "application/octet-stream", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestDetectShedsLoadWith503 saturates a server whose workers never
// started (internal construction, as TestDetectFrameShedsLoad does) and
// checks the shedding handler maps the full queue to 503 — the contract
// a load balancer retries on.
func TestDetectShedsLoadWith503(t *testing.T) {
	p := tinyProgram(t)
	s := &Server{prog: p, cfg: Config{QueueCap: 1}.withDefaults(), queue: make(chan *request, 1)}
	s.queue <- &request{} // saturate; no worker will ever drain this
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32,
		Detect:   detect.Config{Spec: tinySpec()},
		ShedLoad: true,
	}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/detect", "application/octet-stream", bytes.NewReader(samplePPM(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/detect on a full queue: status %d, want 503", resp.StatusCode)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestClientRoundTrip drives serve.Client against a live handler and
// cross-checks the decoded response against the library pipeline —
// the client the evaluation harness scores mAP through.
func TestClientRoundTrip(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	defer s.Close()
	cfg := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.2}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32,
		Detect: cfg,
		Labels: []string{"car", "pedestrian"},
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Score: 0.05}
	ppm := samplePPM(t)
	resp, err := c.DetectBytes(ppm)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(resp.Detections) {
		t.Errorf("count %d != %d detections", resp.Count, len(resp.Detections))
	}

	// Reference: the in-process pipeline at the client's override.
	img, err := tensor.DecodeImage(bytes.NewReader(ppm))
	if err != nil {
		t.Fatal(err)
	}
	canvas, meta := tensor.LetterboxImage(img, 32, 32, tensor.LetterboxFill)
	heads, err := p.Heads(canvas.Reshape(1, 3, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	pipe := cfg
	pipe.ScoreThreshold = 0.05
	want, err := detect.Postprocess(heads, meta, pipe)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Boxes()
	if len(got) != len(want) {
		t.Fatalf("client decoded %d detections, pipeline produced %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("detection %d: client %+v != pipeline %+v (JSON round trip must be exact)", i, got[i], want[i])
		}
	}

	// Error surfaces carry the server's message.
	if _, err := c.DetectBytes([]byte("garbage")); err == nil {
		t.Error("garbage body did not error through the client")
	} else if want := "400"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("client error %q does not mention the %s status", err, want)
	}
	bad := &Client{BaseURL: "http://127.0.0.1:1", Score: 0.5}
	if _, err := bad.DetectBytes(ppm); err == nil {
		t.Error("unreachable server did not error")
	}
	malformed := &Client{BaseURL: "://nope"}
	if _, err := malformed.DetectBytes(ppm); err == nil {
		t.Error("malformed base URL did not error")
	}
}
