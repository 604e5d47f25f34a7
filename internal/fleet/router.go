package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rtoss/internal/rng"
	"rtoss/internal/serve"
)

// maxProxyBody bounds a request body the router buffers for replay
// across failover attempts (matches the shard's own /detect limit).
const maxProxyBody = 32 << 20

// Router is the fleet front end: it consistent-hashes each request's
// model key onto the backend ring, forwards to the key's owner, and on
// transport errors or retryable statuses (500/502/503) fails over
// along the ring with decorrelated-jitter backoff — preferring
// backends whose circuit breaker admits traffic, trying the rest only
// as a last resort. Request bodies are buffered up front so every
// attempt replays identical bytes; responses stream back untouched, so
// fleet results are bitwise identical to a single shard's.
//
// The degradation ladder: the key's ring owner first; on failure, each
// next ring owner in order; when every attempt is spent, shed with 503
// + Retry-After. A request is never left hanging on a dead backend —
// every rung either answers or falls through to the next.
type Router struct {
	cfg    RouterConfig
	ring   *ring
	prober *Prober
	client *http.Client // shared keep-alive transport across attempts

	// jrng draws the retry backoff jitter; guarded by jmu (the proxy
	// path only touches it between failed attempts, never per request).
	jmu  sync.Mutex
	jrng *rng.RNG

	stats routerStats
}

// RouterConfig wires a Router. Zero values select the defaults.
type RouterConfig struct {
	// Backends are the shard base URLs (e.g. "http://host:port").
	Backends []string
	// Default is the model key for requests without routing params.
	Default serve.Key
	// VNodes is the virtual-node count per backend (default 64).
	VNodes int
	// Attempts bounds upstream tries per request (default: one per
	// backend).
	Attempts int
	// Backoff is the base delay between failover attempts. Retries
	// sleep with decorrelated jitter: the first retry waits exactly
	// Backoff, each later one a uniform draw from [Backoff,
	// min(BackoffCap, 3×previous)) — growing like doubling on average
	// but desynchronized, so a fleet of clients retrying a dead owner
	// does not arrive in lockstep waves (default 10ms).
	Backoff time.Duration
	// BackoffCap bounds a single retry sleep (default 1s).
	BackoffCap time.Duration
	// BackoffSeed pins the jitter RNG for reproducible tests; 0 seeds
	// from the clock (production).
	BackoffSeed uint64
	// AttemptTimeout bounds each upstream try (default 60s).
	AttemptTimeout time.Duration
	// Probe tunes the health prober.
	Probe ProberConfig
}

type routerStats struct {
	requests    atomic.Uint64 // proxied requests accepted
	attempts    atomic.Uint64 // upstream forward attempts
	retries     atomic.Uint64 // attempts beyond the first per request
	failovers   atomic.Uint64 // responses served by a non-primary replica
	success     atomic.Uint64 // 2xx proxied back to the client
	passthrough atomic.Uint64 // non-retryable upstream statuses proxied back
	exhausted   atomic.Uint64 // 503s shed after every replica failed
	rejected    atomic.Uint64 // requests the router itself refused (bad key/body)
}

// NewRouter validates the config and starts the health prober.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring, err := newRing(cfg.Backends, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = len(cfg.Backends)
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = time.Second
	}
	if cfg.BackoffSeed == 0 {
		cfg.BackoffSeed = uint64(time.Now().UnixNano())
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = serve.DefaultClientTimeout
	}
	return &Router{
		cfg:    cfg,
		ring:   ring,
		prober: NewProber(cfg.Backends, cfg.Probe),
		client: &http.Client{},
		jrng:   rng.New(cfg.BackoffSeed),
	}, nil
}

// Close stops the prober and drops idle upstream connections.
func (rt *Router) Close() {
	rt.prober.Close()
	rt.client.CloseIdleConnections()
}

// Handler is the router's HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !rt.prober.AnyHealthy() {
			http.Error(w, "fleet: no healthy backends", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, rt.statsDoc(r.Context()))
	})
	mux.HandleFunc("POST /stream", func(w http.ResponseWriter, r *http.Request) {
		// Streaming sessions are stateful (one session pins one model
		// server); proxying them through a failover tier would tear
		// session state on every retry, so the router refuses cleanly.
		http.Error(w, "fleet: /stream is not proxied; connect to a shard's rtoss serve directly", http.StatusNotImplemented)
	})
	mux.HandleFunc("POST /detect", rt.proxy)
	mux.HandleFunc("GET /program", rt.proxy)
	return mux
}

// proxy routes one request along the ring with failover.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	rt.stats.requests.Add(1)
	key, err := KeyFromQuery(r.URL.Query(), rt.cfg.Default)
	if err != nil {
		rt.stats.rejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var body []byte
	if r.Body != nil {
		body, err = io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
		if err != nil {
			rt.stats.rejected.Add(1)
			http.Error(w, fmt.Sprintf("fleet: reading request body: %v", err), http.StatusBadRequest)
			return
		}
		if int64(len(body)) > maxProxyBody {
			rt.stats.rejected.Add(1)
			http.Error(w, fmt.Sprintf("fleet: request body exceeds the %d-byte proxy limit", maxProxyBody), http.StatusRequestEntityTooLarge)
			return
		}
	}

	order := rt.attemptOrder(key.String())
	var backoff time.Duration
	var lastErr error
	for i, backend := range order {
		if i > 0 {
			rt.stats.retries.Add(1)
			backoff = rt.nextBackoff(backoff)
			time.Sleep(backoff)
		}
		rt.stats.attempts.Add(1)
		resp, err := rt.forward(r, backend, body)
		if err != nil {
			rt.prober.MarkDown(backend, err)
			lastErr = err
			continue
		}
		// Any HTTP response proves the transport works: close the
		// breaker (a half-open trial is promoted by exactly this).
		// Retryable 5xx bodies below still fail the request over —
		// breaker state tracks reachability, not application health.
		rt.prober.MarkSuccess(backend)
		if retryableStatus(resp.StatusCode) {
			lastErr = fmt.Errorf("%s answered %s", backend, resp.Status)
			excerpt, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
			io.Copy(io.Discard, io.LimitReader(resp.Body, maxProxyBody))
			resp.Body.Close()
			if len(excerpt) > 0 {
				lastErr = fmt.Errorf("%s answered %s: %s", backend, resp.Status, bytes.TrimSpace(excerpt))
			}
			continue
		}
		if backend != order[0] {
			rt.stats.failovers.Add(1)
		}
		rt.relay(w, resp)
		return
	}
	// The bottom of the degradation ladder: every rung failed, so shed
	// explicitly — 503 with a Retry-After hint sized to the breaker's
	// base hold — rather than hanging the client or masquerading as a
	// gateway error. 503 is what load balancers and clients treat as
	// "back off and retry elsewhere/later", which is exactly the state.
	rt.stats.exhausted.Add(1)
	w.Header().Set("Retry-After", "1")
	http.Error(w, fmt.Sprintf("fleet: all %d replica attempts for %v failed, last error: %v",
		len(order), key, lastErr), http.StatusServiceUnavailable)
}

// nextBackoff draws the next retry sleep with decorrelated jitter:
// the first retry waits exactly the configured base, each later one a
// uniform draw from [base, min(cap, 3×previous)).
func (rt *Router) nextBackoff(prev time.Duration) time.Duration {
	base, cap := rt.cfg.Backoff, rt.cfg.BackoffCap
	if prev <= 0 {
		return base
	}
	hi := 3 * prev
	if hi > cap || hi <= 0 {
		hi = cap
	}
	if hi <= base {
		return base
	}
	rt.jmu.Lock()
	f := rt.jrng.Float64()
	rt.jmu.Unlock()
	return base + time.Duration(f*float64(hi-base))
}

// attemptOrder is the ring's failover order for a key with backends
// whose breaker blocks traffic (open, hold not yet elapsed) moved to
// the back: they are still tried as a last resort (the breaker may be
// stale) but never before an admissible replica. Allow itself
// transitions an open breaker whose hold has elapsed to half-open —
// the request that then reaches it is the trial. The slice is capped
// at the configured attempt budget.
func (rt *Router) attemptOrder(key string) []string {
	order := rt.ring.order(key)
	sorted := make([]string, 0, len(order))
	blocked := make([]bool, len(order))
	for i, b := range order {
		if rt.prober.Allow(b) {
			sorted = append(sorted, b)
		} else {
			blocked[i] = true
		}
	}
	for i, b := range order {
		if blocked[i] {
			sorted = append(sorted, b)
		}
	}
	if len(sorted) > rt.cfg.Attempts {
		sorted = sorted[:rt.cfg.Attempts]
	}
	return sorted
}

// forward replays the request against one backend.
func (rt *Router) forward(r *http.Request, backend string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
	u := backend + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.ContentLength = int64(len(body))
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The context must outlive the response body read; tie the cancel
	// to body close so relay/drain paths release it.
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.cancel)
	return err
}

// relay copies an upstream response to the client verbatim.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		rt.stats.success.Add(1)
	} else {
		rt.stats.passthrough.Add(1)
	}
	for _, h := range []string{"Content-Type", "Content-Length"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// retryableStatus reports whether an upstream status warrants failing
// over to the next replica: transport-adjacent server failures only.
// 4xx (the client's fault), 501 (deliberate refusal) and 504 (the
// frame's own deadline budget expired — a replay would arrive even
// later) pass through.
func retryableStatus(code int) bool {
	return code == http.StatusInternalServerError ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// Stats snapshots the router's counters. The counters are
// conservation-consistent: requests == success + passthrough +
// exhausted + rejected once in-flight requests settle.
func (rt *Router) Stats() map[string]uint64 {
	return map[string]uint64{
		"requests":    rt.stats.requests.Load(),
		"attempts":    rt.stats.attempts.Load(),
		"retries":     rt.stats.retries.Load(),
		"failovers":   rt.stats.failovers.Load(),
		"success":     rt.stats.success.Load(),
		"passthrough": rt.stats.passthrough.Load(),
		"exhausted":   rt.stats.exhausted.Load(),
		"rejected":    rt.stats.rejected.Load(),
	}
}

// statsDoc is the GET /stats document: router counters, per-backend
// health, and each live backend's own /stats fetched in parallel.
func (rt *Router) statsDoc(ctx context.Context) map[string]any {
	statuses := rt.prober.Statuses()
	shardStats := make([]any, len(statuses))
	var wg sync.WaitGroup
	for i, st := range statuses {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			shardStats[i] = rt.fetchShardStats(ctx, base)
		}(i, st.URL)
	}
	wg.Wait()
	backends := make([]map[string]any, len(statuses))
	for i, st := range statuses {
		backends[i] = map[string]any{
			"url":                  st.URL,
			"healthy":              st.Healthy,
			"breaker":              st.State,
			"breaker_trips":        st.Trips,
			"consecutive_failures": st.Fails,
			"stats":                shardStats[i],
		}
		if st.LastErr != "" {
			backends[i]["last_error"] = st.LastErr
		}
	}
	return map[string]any{
		"router":   rt.Stats(),
		"backends": backends,
	}
}

func (rt *Router) fetchShardStats(ctx context.Context, base string) any {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return map[string]any{"error": err.Error()}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return map[string]any{"error": err.Error()}
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxProxyBody)).Decode(&doc); err != nil {
		return map[string]any{"error": err.Error()}
	}
	io.Copy(io.Discard, resp.Body)
	return doc
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
