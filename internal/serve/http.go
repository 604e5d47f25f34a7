package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rtoss/internal/detect"
)

// HTTP front end for a Server:
//
//	POST /detect   body = an encoded image (PPM/PGM P2/P3/P5/P6, PNG or
//	               baseline JPEG)
//	               → JSON {detections, count, image, timing_ms}
//	               (?score= and ?iou= override the thresholds,
//	               ?budget_ms= sets a deadline)
//	GET  /stats    → JSON Stats snapshot
//	GET  /healthz  → 200 "ok"
//
// /detect speaks images so a camera, a curl command or a browser can
// drive the full detection pipeline.

// maxImageBody bounds /detect request bodies (32 MiB decodes any sane
// benchmark image).
const maxImageBody = 32 << 20

// bufPool recycles request-body and response-encoding byte buffers
// across requests. Together with the pooled ingest scratch behind
// Server.Detect this keeps a /detect request's steady-state heap
// traffic near zero.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Body-read failure classes. errBodyTooLarge maps to 413 (the client
// must shrink the payload, retrying elsewhere won't help) and
// errBodyMismatch to 400 (the declared Content-Length lied about the
// bytes actually sent — truncating or over-reading silently would feed
// the decoder a frankenstein image).
var (
	errBodyTooLarge = errors.New("serve: request body exceeds the size limit")
	errBodyMismatch = errors.New("serve: request body does not match its Content-Length")
)

// bodyErrCode maps a readBody failure to its HTTP status.
func bodyErrCode(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBody reads a request body into a pooled buffer. When the client
// sent a Content-Length (the common case) the buffer is sized to it up
// front and filled with one ReadFull — no io.ReadAll growth copies;
// chunked bodies fall back to append-style growth into the same pooled
// buffer. The declared length is verified, never trusted: a
// Content-Length above the limit is rejected with errBodyTooLarge
// before any allocation (so a lying header cannot over-allocate), a
// body shorter or longer than its declaration is rejected with
// errBodyMismatch instead of being silently truncated or padded, and a
// chunked body that outgrows the limit is rejected with
// errBodyTooLarge. Negative lengths other than -1 never reach here (Go
// normalises unknown lengths to -1), and the chunked path bounds reads
// at limit+1 bytes regardless. The caller must hand the buffer back to
// bufPool once it is done with the bytes.
func readBody(r *http.Request, limit int64) (*[]byte, error) {
	if r.ContentLength > limit {
		return nil, fmt.Errorf("%w: declared %d bytes, limit %d", errBodyTooLarge, r.ContentLength, limit)
	}
	bp := bufPool.Get().(*[]byte)
	if n := r.ContentLength; n >= 0 {
		if cap(*bp) < int(n) {
			*bp = make([]byte, n)
		}
		*bp = (*bp)[:n]
		if _, err := io.ReadFull(r.Body, *bp); err != nil {
			bufPool.Put(bp)
			return nil, fmt.Errorf("%w: declared %d bytes, body ended early (%v)", errBodyMismatch, n, err)
		}
		// Probe one byte past the declaration: the Go server caps
		// Content-Length bodies for us, but handlers behind other
		// plumbing (tests, proxies) may see the raw stream — a body
		// running past its declaration must fail loudly, not feed a
		// silently truncated image to the decoder.
		var probe [1]byte
		if k, _ := r.Body.Read(probe[:]); k > 0 {
			bufPool.Put(bp)
			return nil, fmt.Errorf("%w: body continues past the declared %d bytes", errBodyMismatch, n)
		}
		return bp, nil
	}
	// Unknown length (chunked transfer): grow in place; the retained
	// capacity makes repeat traffic allocation-free here too.
	b := (*bp)[:0]
	lr := io.LimitedReader{R: r.Body, N: limit + 1}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = b
			bufPool.Put(bp)
			return nil, fmt.Errorf("serve: reading request body: %w", err)
		}
	}
	*bp = b
	if int64(len(b)) > limit {
		bufPool.Put(bp)
		return nil, fmt.Errorf("%w: chunked body ran past the %d-byte limit", errBodyTooLarge, limit)
	}
	return bp, nil
}

// HandlerConfig wires a Server to the HTTP front end.
type HandlerConfig struct {
	// InputH/InputW are the letterbox canvas /detect resizes images to.
	InputH, InputW int
	// Detect is the /detect pipeline config (head spec + thresholds).
	Detect detect.Config
	// Labels maps class IDs to display names in /detect responses
	// (optional; class indices are always included).
	Labels []string
	// ShedLoad makes /detect reject with 503 when the server's queue
	// is full instead of blocking the connection — the right choice
	// when a load balancer can retry elsewhere.
	ShedLoad bool
	// ExtraStats, when set, contributes extra top-level sections to
	// the GET /stats document — the hook internal/stream uses to merge
	// its per-stream drop/deadline counters into the same snapshot.
	// Keys must not collide with the server's own stats keys.
	ExtraStats func() map[string]any
	// SnapshotKey, when set, mounts GET /program serving the Program's
	// gob snapshot under this key — the warm-handoff donor side. Nil
	// disables the endpoint (404).
	SnapshotKey *Key
}

// DetectionJSON is one detection on the /detect wire (and in `rtoss
// detect` output): box corners in source-image pixels, class index,
// optional label, confidence.
type DetectionJSON struct {
	Box   [4]float64 `json:"box"`
	Class int        `json:"class"`
	Label string     `json:"label,omitempty"`
	Score float64    `json:"score"`
}

// ImageSizeJSON is the decoded source-image dimensions on the wire.
type ImageSizeJSON struct {
	Width  int `json:"width"`
	Height int `json:"height"`
}

// TimingJSON is the /detect per-stage latency breakdown, milliseconds.
type TimingJSON struct {
	Ingest     float64 `json:"ingest"`
	Preprocess float64 `json:"preprocess"`
	Forward    float64 `json:"forward"`
	Decode     float64 `json:"decode"`
	Total      float64 `json:"total"`
}

// DetectResponse is the POST /detect response body. The same struct is
// produced by the handler and consumed by Client, so the two cannot
// drift apart.
type DetectResponse struct {
	Detections []DetectionJSON `json:"detections"`
	Count      int             `json:"count"`
	Image      ImageSizeJSON   `json:"image"`
	TimingMS   TimingJSON      `json:"timing_ms"`
}

// Boxes converts the wire detections back into pipeline detections, in
// response order. The conversion is exact: box corners and scores are
// float64 on both sides and Go's JSON encoding round-trips float64
// bitwise, so evaluation over HTTP scores the very numbers the server
// computed.
func (r *DetectResponse) Boxes() []detect.Detection {
	out := make([]detect.Detection, len(r.Detections))
	for i, d := range r.Detections {
		out[i] = detect.Detection{
			Box:   detect.Box{X1: d.Box[0], Y1: d.Box[1], X2: d.Box[2], Y2: d.Box[3]},
			Class: d.Class,
			Score: d.Score,
		}
	}
	return out
}

// NewHandler serves one model Server over HTTP.
func NewHandler(s *Server, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		doc := statsJSON(s.Stats())
		if cfg.ExtraStats != nil {
			for k, v := range cfg.ExtraStats() {
				doc[k] = v
			}
		}
		writeJSON(w, doc)
	})
	mux.HandleFunc("POST /detect", func(w http.ResponseWriter, r *http.Request) {
		handleDetect(w, r, s, cfg)
	})
	if cfg.SnapshotKey != nil {
		k := *cfg.SnapshotKey
		mux.HandleFunc("GET /program", func(w http.ResponseWriter, r *http.Request) {
			handleSnapshot(w, r, k, s.Program())
		})
	}
	return mux
}

// handleDetect is a thin shim over Server.DetectFrame: parse the
// threshold overrides, read the body, enqueue. Preprocess (image decode
// + letterbox), the co-batched forward and the pooled decode+NMS all run
// on the server's batch executors, so detection throughput scales with
// the worker pool instead of with handler goroutines.
func handleDetect(w http.ResponseWriter, r *http.Request, s *Server, cfg HandlerConfig) {
	pipe := cfg.Detect
	var err error
	if pipe.ScoreThreshold, err = queryFloat(r, "score", pipe.ScoreThreshold); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if pipe.IoUThreshold, err = queryFloat(r, "iou", pipe.IoUThreshold); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	budget, err := queryBudget(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := readBody(r, maxImageBody)
	if err != nil {
		http.Error(w, err.Error(), bodyErrCode(err))
		return
	}
	// A ?budget_ms= deadline lets admission shed the request once it
	// has passed; ShedLoad answers 503 instead of waiting for a full
	// queue.
	opt := FrameOptions{Block: !cfg.ShedLoad}
	if budget > 0 {
		opt.Deadline = time.Now().Add(budget)
	}
	res, err := s.DetectFrame(*body, pipe, cfg.InputH, cfg.InputW, opt)
	// DetectFrame never retains the image bytes past its return
	// (preprocess copies them into pooled tensors before the response is
	// sent), so the body buffer can serve the next request immediately.
	bufPool.Put(body)
	if err != nil {
		http.Error(w, err.Error(), serveErrCode(err))
		return
	}
	writeDetectResponse(w, res, cfg.Labels)
}

// detectEnc is the pooled per-request response-encoding scratch: the
// DetectionJSON slice and the JSON output buffer both retain capacity
// across requests.
type detectEnc struct {
	dets []DetectionJSON
	buf  []byte
}

var detectEncPool = sync.Pool{New: func() any { return new(detectEnc) }}

// writeDetectResponse encodes a detect result with the append-style
// encoder below instead of json.NewEncoder — the whole response path
// (DetectionJSON slice + output bytes) lives in pooled scratch, so a
// steady /detect stream allocates nothing here.
func writeDetectResponse(w http.ResponseWriter, res *detect.Result, labels []string) {
	e := detectEncPool.Get().(*detectEnc)
	e.dets = appendDetectionsJSON(e.dets[:0], res.Detections, labels)
	resp := DetectResponse{
		Detections: e.dets,
		Count:      len(res.Detections),
		Image:      ImageSizeJSON{Width: res.SrcW, Height: res.SrcH},
		TimingMS: TimingJSON{
			Ingest:     ms(res.Timing.Ingest),
			Preprocess: ms(res.Timing.Preprocess),
			Forward:    ms(res.Timing.Forward),
			Decode:     ms(res.Timing.Decode),
			Total:      ms(res.Timing.Total()),
		},
	}
	e.buf = appendDetectResponse(e.buf[:0], &resp)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.buf)))
	w.Write(e.buf)
	detectEncPool.Put(e)
}

// appendDetectResponse hand-encodes a DetectResponse. It must stay
// field-for-field in sync with the struct's json tags (the decode side
// is the stdlib, so a drift shows up as a failing round-trip test, not
// silent corruption). Floats use strconv's shortest 'g' form, which
// ParseFloat round-trips bitwise — the exactness contract Boxes()
// documents survives the hand encoder.
//
//rtoss:noalloc
func appendDetectResponse(b []byte, r *DetectResponse) []byte {
	b = append(b, `{"detections":[`...)
	for i := range r.Detections {
		if i > 0 {
			b = append(b, ',')
		}
		d := &r.Detections[i]
		b = append(b, `{"box":[`...)
		for j, v := range d.Box {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, `],"class":`...)
		b = strconv.AppendInt(b, int64(d.Class), 10)
		if d.Label != "" { // mirrors the json:",omitempty" tag
			b = append(b, `,"label":`...)
			b = appendJSONString(b, d.Label)
		}
		b = append(b, `,"score":`...)
		b = strconv.AppendFloat(b, d.Score, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	b = append(b, `,"image":{"width":`...)
	b = strconv.AppendInt(b, int64(r.Image.Width), 10)
	b = append(b, `,"height":`...)
	b = strconv.AppendInt(b, int64(r.Image.Height), 10)
	b = append(b, `},"timing_ms":{"ingest":`...)
	b = strconv.AppendFloat(b, r.TimingMS.Ingest, 'g', -1, 64)
	b = append(b, `,"preprocess":`...)
	b = strconv.AppendFloat(b, r.TimingMS.Preprocess, 'g', -1, 64)
	b = append(b, `,"forward":`...)
	b = strconv.AppendFloat(b, r.TimingMS.Forward, 'g', -1, 64)
	b = append(b, `,"decode":`...)
	b = strconv.AppendFloat(b, r.TimingMS.Decode, 'g', -1, 64)
	b = append(b, `,"total":`...)
	b = strconv.AppendFloat(b, r.TimingMS.Total, 'g', -1, 64)
	b = append(b, `}}`...)
	return append(b, '\n')
}

// appendJSONString writes a JSON string literal: quotes and backslashes
// escaped, control characters as \u00XX, everything else (including
// multi-byte UTF-8) verbatim.
//
//rtoss:noalloc
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// serveErrCode maps server errors to HTTP statuses: 503 when closed,
// shedding load, aborted by a co-batched panic, or failed by the
// stuck-batch watchdog (all retryable elsewhere — the fleet router
// fails them over), 400 when the request body was not a decodable
// image, 504 when the request's deadline budget expired before
// execution (admission shed it), 500 for an executor panic on this
// request and anything else.
func serveErrCode(err error) int {
	switch {
	case errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrCoBatched) || errors.Is(err, ErrStuckBatch):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadImage):
		return http.StatusBadRequest
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// queryBudget parses the optional ?budget_ms= deadline budget of a
// /detect request: the frame must complete within this many
// milliseconds of arrival or admission sheds it with 504.
func queryBudget(r *http.Request) (time.Duration, error) {
	s := r.URL.Query().Get("budget_ms")
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 || v > 3600_000 {
		return 0, fmt.Errorf("serve: query budget_ms=%q must be a positive millisecond count", s)
	}
	return time.Duration(v * float64(time.Millisecond)), nil
}

// queryFloat parses a threshold override. Zero is rejected rather than
// accepted: detect.Config treats non-positive thresholds as "unset"
// (replaced by the defaults), so silently passing 0 through would run
// the request with the default threshold instead of the requested one.
func queryFloat(r *http.Request, key string, def float64) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 || v > 1 {
		return 0, fmt.Errorf("serve: query %s=%q must be a number in (0, 1]", key, s)
	}
	return v, nil
}

// appendDetectionsJSON converts pipeline detections to their wire form,
// appending into dst so the handler's pooled slice is reused across
// requests.
//
//rtoss:noalloc
func appendDetectionsJSON(dst []DetectionJSON, dets []detect.Detection, labels []string) []DetectionJSON {
	for _, d := range dets {
		j := DetectionJSON{
			Box:   [4]float64{d.Box.X1, d.Box.Y1, d.Box.X2, d.Box.Y2},
			Class: d.Class,
			Score: d.Score,
		}
		if d.Class >= 0 && d.Class < len(labels) {
			j.Label = labels[d.Class]
		}
		dst = append(dst, j)
	}
	return dst
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// StatsJSON renders a Stats snapshot as the GET /stats JSON document —
// exported so the fleet shard can publish one section per resident
// model under the same key names a single-model server uses.
func StatsJSON(st Stats) map[string]any { return statsJSON(st) }

func statsJSON(st Stats) map[string]any {
	return map[string]any{
		"requests":       st.Requests,
		"rejected":       st.Rejected,
		"errors":         st.Errors,
		"completed":      st.Completed,
		"batches":        st.Batches,
		"avg_batch":      st.AvgBatch,
		"max_batch":      st.MaxBatch,
		"avg_latency_ms": ms(st.AvgLatency),
		"max_latency_ms": ms(st.MaxLatency),
		"queue_depth":    st.QueueDepth,
		// Batched detection-path counters (Detect/DetectFrame requests).
		"detects":           st.Detects,
		"candidates":        st.Candidates,
		"boxes":             st.Boxes,
		"avg_ingest_ms":     ms(st.AvgIngest),
		"avg_preprocess_ms": ms(st.AvgPreprocess),
		"avg_decode_ms":     ms(st.AvgDecode),
		"avg_nms_ms":        ms(st.AvgNMS),
		// Deadline counters (DetectFrame / ?budget_ms requests).
		// Snapshotted atomically alongside everything else: each field
		// is one atomic load, so no torn reads under -race.
		"deadline_shed":     st.DeadlineShed,
		"deadline_hits":     st.DeadlineHits,
		"deadline_misses":   st.DeadlineMisses,
		"deadline_hit_rate": deadlineHitRate(st),
		// Robustness counters: executor panics survived, co-batched
		// requests transparently re-queued after one, and batches the
		// stuck-batch watchdog failed.
		"panics":        st.Panics,
		"requeues":      st.Requeues,
		"stuck_batches": st.StuckBatches,
	}
}

// deadlineHitRate is the fraction of deadline-carrying frames that
// were served within budget, over everything that was shed or served
// late instead; 1 when no deadline traffic has been seen.
func deadlineHitRate(st Stats) float64 {
	total := st.DeadlineHits + st.DeadlineMisses + st.DeadlineShed
	if total == 0 {
		return 1
	}
	return float64(st.DeadlineHits) / float64(total)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
