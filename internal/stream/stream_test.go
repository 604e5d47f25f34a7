package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rtoss/internal/core"
	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/nn"
	"rtoss/internal/serve"
	"rtoss/internal/tensor"
)

// tinyProgram compiles the same small pruned detector the serve tests
// use (2 classes, 14-channel stride-4 head) so session tests stay
// cheap.
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

func tinySpec() detect.HeadSpec {
	return detect.HeadSpec{
		Kind:    detect.HeadYOLOv5,
		Classes: 2,
		Levels:  []detect.HeadLevel{{Stride: 4, Anchors: [][2]float64{{8, 8}, {16, 16}}}},
	}
}

// samplePPM encodes a deterministic test frame.
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

func newTestHub(t testing.TB, cfg Config) (*serve.Server, *Hub) {
	t.Helper()
	srv := serve.NewServer(tinyProgram(t), serve.Config{})
	if cfg.Pipe.Spec.Classes == 0 {
		cfg.Pipe = detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}
	}
	if cfg.ResH == 0 {
		cfg.ResH, cfg.ResW = 32, 32
	}
	hub := NewHub(srv, cfg)
	t.Cleanup(func() { hub.Close(); srv.Close() })
	return srv, hub
}

// TestSessionServesInOrder: a lockstep pusher (next frame only after
// the previous resolved) gets every frame served, in capture order,
// with detections identical to the direct Server.Detect path.
func TestSessionServesInOrder(t *testing.T) {
	srv, hub := newTestHub(t, Config{})
	ppm := samplePPM(t)
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}
	want, err := srv.Detect(ppm, pipe, 32, 32)
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan Result, 16)
	sess, err := hub.Open(SessionConfig{OnResult: func(r Result) { results <- r }})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 8
	for i := 0; i < frames; i++ {
		if err := sess.Push(ppm); err != nil {
			t.Fatal(err)
		}
		r := <-results
		if r.Err != nil {
			t.Fatalf("frame %d: %v", i, r.Err)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("frame %d resolved with seq %d", i, r.Seq)
		}
		if len(r.Det.Detections) != len(want.Detections) {
			t.Fatalf("frame %d: %d detections, direct path %d", i, len(r.Det.Detections), len(want.Detections))
		}
		for j, d := range r.Det.Detections {
			if d != want.Detections[j] {
				t.Fatalf("frame %d detection %d differs from direct path", i, j)
			}
		}
	}
	sess.Close()
	sum := sess.Summary()
	if sum.FramesIn != frames || sum.FramesServed != frames || sum.DroppedStale != 0 {
		t.Fatalf("summary %+v, want %d in / %d served / 0 dropped", sum, frames, frames)
	}
	if sum.DeadlineHitRate != 1 {
		t.Fatalf("hit rate %v, want 1 (no deadlines)", sum.DeadlineHitRate)
	}
}

// TestSessionNewestFrameWins pins the mailbox drop policy
// deterministically: the pump is parked inside the OnResult callback
// while two more frames arrive, so the middle frame must be evicted by
// the newest and resolve as superseded, never served. The gate only
// blocks the pump (seq 1); the eviction callback arrives on the
// pushing goroutine and must not block.
func TestSessionNewestFrameWins(t *testing.T) {
	_, hub := newTestHub(t, Config{})
	ppm := samplePPM(t)

	results := make(chan Result, 16)
	entered := make(chan struct{})
	gate := make(chan struct{})
	sess, err := hub.Open(SessionConfig{OnResult: func(r Result) {
		results <- r
		if r.Seq == 1 {
			close(entered)
			<-gate
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(ppm); err != nil { // seq 1: served, parks the pump
		t.Fatal(err)
	}
	<-entered
	if err := sess.Push(ppm); err != nil { // seq 2: waits in the mailbox
		t.Fatal(err)
	}
	if err := sess.Push(ppm); err != nil { // seq 3: evicts seq 2
		t.Fatal(err)
	}
	close(gate)
	sess.Close() // serves the final mailbox frame (seq 3)

	got := map[uint64]error{}
	for i := 0; i < 3; i++ {
		r := <-results
		got[r.Seq] = r.Err
	}
	if got[1] != nil {
		t.Fatalf("seq 1: %v, want served", got[1])
	}
	if !errors.Is(got[2], serve.ErrSuperseded) {
		t.Fatalf("seq 2: %v, want ErrSuperseded (newest-frame-wins)", got[2])
	}
	if got[3] != nil {
		t.Fatalf("seq 3: %v, want served", got[3])
	}
	sum := sess.Summary()
	if sum.FramesServed != 2 || sum.DroppedStale != 1 {
		t.Fatalf("summary %+v, want 2 served / 1 dropped stale", sum)
	}
}

// TestSessionConservation: on an arbitrary overlapped pushing pattern,
// every pushed frame resolves to exactly one outcome and the counters
// add up.
func TestSessionConservation(t *testing.T) {
	_, hub := newTestHub(t, Config{})
	ppm := samplePPM(t)
	var mu sync.Mutex
	seen := map[uint64]int{}
	sess, err := hub.Open(SessionConfig{OnResult: func(r Result) {
		mu.Lock()
		seen[r.Seq]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 200
	for i := 0; i < frames; i++ {
		if err := sess.Push(ppm); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	sum := sess.Summary()
	if sum.FramesIn != frames {
		t.Fatalf("frames_in %d, want %d", sum.FramesIn, frames)
	}
	if got := sum.FramesServed + sum.DroppedStale + sum.DroppedDeadline + sum.Errors; got != frames {
		t.Fatalf("outcomes %d (served %d + stale %d + deadline %d + errors %d) != pushed %d",
			got, sum.FramesServed, sum.DroppedStale, sum.DroppedDeadline, sum.Errors, frames)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != frames {
		t.Fatalf("%d distinct seqs resolved, want %d", len(seen), frames)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d resolved %d times", seq, n)
		}
	}
}

// TestPushAfterClose: a closed session refuses frames.
func TestPushAfterClose(t *testing.T) {
	_, hub := newTestHub(t, Config{})
	sess, err := hub.Open(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if err := sess.Push(samplePPM(t)); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("Push after Close: %v, want ErrHubClosed", err)
	}
	hub.Close()
	if _, err := hub.Open(SessionConfig{}); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("Open after hub Close: %v, want ErrHubClosed", err)
	}
}

// TestStreamHTTP drives POST /stream end-to-end in both wire formats
// and checks the JSON summary conserves frames, then checks the merged
// GET /stats document carries the stream counters.
func TestStreamHTTP(t *testing.T) {
	srv, hub := newTestHub(t, Config{})
	mux := http.NewServeMux()
	mux.Handle("/stream", hub.Handler())
	mux.Handle("/", serve.NewHandler(srv, serve.HandlerConfig{
		InputH: 32, InputW: 32,
		Detect:     detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05},
		ExtraStats: hub.StatsMap,
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ppm := samplePPM(t)

	var multi []byte
	for i := 0; i < 3; i++ {
		multi = AppendMultipartFrame(multi, "frame", ppm)
	}
	multi = FinishMultipart(multi, "frame")
	var raw []byte
	for i := 0; i < 3; i++ {
		raw = AppendRawFrame(raw, ppm)
	}
	raw = FinishRaw(raw)

	for _, tc := range []struct {
		name, ctype string
		body        []byte
	}{
		{"multipart", MultipartContentType("frame"), multi},
		{"raw", RawContentType, raw},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/stream?budget_ms=60000", tc.ctype, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			var sr StreamResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Fatal(err)
			}
			if sr.FramesIn != 3 {
				t.Fatalf("frames_in %d, want 3", sr.FramesIn)
			}
			if got := sr.FramesServed + sr.DroppedStale + sr.DroppedDeadline + sr.Errors; got != 3 {
				t.Fatalf("outcomes %d != 3 (%+v)", got, sr.Summary)
			}
			if sr.FramesServed == 0 {
				t.Fatal("no frames served; the final frame must always be served")
			}
			if sr.Errors != 0 {
				t.Fatalf("%d pipeline errors", sr.Errors)
			}
		})
	}

	// Malformed body → 400; unsupported content type → 415; bad budget → 400.
	resp, err := http.Post(ts.URL+"/stream", MultipartContentType("frame"), bytes.NewReader(multi[:20]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated stream: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/stream", "video/mp4", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("bad content type: status %d, want 415", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/stream?budget_ms=-5", RawContentType, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad budget: status %d, want 400", resp.StatusCode)
	}

	// The merged /stats document must carry the stream section with
	// consistent counters.
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(statsResp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	streams, ok := doc["streams"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no streams section: %v", doc)
	}
	for _, key := range []string{"frames_in", "frames_served", "dropped_stale", "dropped_deadline", "deadline_hit_rate", "avg_serve_ms", "active", "opened"} {
		if _, ok := streams[key]; !ok {
			t.Errorf("/stats streams section missing %q", key)
		}
	}
	if got := streams["frames_in"].(float64); got != 6 {
		t.Errorf("stats frames_in %v, want 6 (two 3-frame streams)", got)
	}
	if got := streams["active"].(float64); got != 0 {
		t.Errorf("stats active %v, want 0 after streams closed", got)
	}
}

// TestSessionBudgetOverride: the per-session budget reaches the serve
// scheduler — an already-expired budget means the frame is shed with
// ErrDeadline, and both the session and the hub count it.
func TestSessionBudgetOverride(t *testing.T) {
	_, hub := newTestHub(t, Config{})
	// A clock frozen far enough in the past that capture+budget is
	// always already expired against the server's real clock.
	hub.cfg.clock = func() time.Time { return time.Now().Add(-time.Hour) }
	results := make(chan Result, 1)
	sess, err := hub.Open(SessionConfig{
		Budget:   time.Millisecond,
		OnResult: func(r Result) { results <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(samplePPM(t)); err != nil {
		t.Fatal(err)
	}
	r := <-results
	if !errors.Is(r.Err, serve.ErrDeadline) {
		t.Fatalf("expired-budget frame resolved %v, want ErrDeadline", r.Err)
	}
	sess.Close()
	if sum := sess.Summary(); sum.DroppedDeadline != 1 || sum.DeadlineHitRate != 0 {
		t.Fatalf("summary %+v, want 1 deadline drop and hit rate 0", sum)
	}
	if hubSum := hub.Stats(); hubSum.DroppedDeadline != 1 {
		t.Fatalf("hub summary %+v, want the deadline drop mirrored", hubSum)
	}
}
