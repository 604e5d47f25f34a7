package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/models"
	"rtoss/internal/serve"
)

// Shard hosts a subset of the model zoo behind one HTTP listener: each
// requested model key gets its own micro-batching serve.Server, built
// lazily on first request and paged out again when the registry's
// memory budget forces an LRU eviction. A late-joining shard warm
// starts by fetching a peer's gob Program snapshot (skipping the
// multi-second prune) and only falls back to a cold build when no peer
// has the key.
type Shard struct {
	cfg ShardConfig
	reg *serve.Registry

	mu      sync.Mutex
	entries map[serve.Key]*shardEntry
	closed  bool
}

type shardEntry struct {
	once sync.Once
	srv  *serve.Server
	h    http.Handler
	err  error
}

// ShardConfig wires a Shard. Zero values select the defaults.
type ShardConfig struct {
	// Registry caches compiled Programs; set a budget on it to bound
	// this shard's model memory. Nil creates a fresh unlimited one.
	Registry *serve.Registry
	// Default is the model key used when a request carries no routing
	// parameters.
	Default serve.Key
	// Res is the square letterbox resolution for /detect (default 256;
	// must be a multiple of the head stride for zoo models).
	Res int
	// Serve configures each per-model server (batching, workers,
	// queue bound).
	Serve serve.Config
	// ShedLoad rejects with 503 instead of blocking when a model's
	// queue is full — the right choice behind a failover router.
	ShedLoad bool
	// Exact switches /detect decoding to exact float64 math.
	Exact bool
	// Labels maps class IDs to names in /detect responses.
	Labels []string
	// WarmFrom lists peer base URLs to try for a Program snapshot
	// before cold building a key.
	WarmFrom []string
	// SnapshotTimeout bounds each warm-handoff fetch (default 30s).
	SnapshotTimeout time.Duration
	// PipeFor resolves the detect pipeline for a key (the test hook
	// that lets non-zoo programs serve). Nil uses the zoo head spec
	// for the key's architecture.
	PipeFor func(serve.Key, *engine.Program) (detect.Config, error)
}

// NewShard returns a shard serving the configured registry. The
// registry's OnEvict hook is claimed by the shard (evicted Programs
// take their serving stack down with them), so don't share one
// registry between shards.
func NewShard(cfg ShardConfig) *Shard {
	if cfg.Registry == nil {
		cfg.Registry = serve.NewRegistry()
	}
	if cfg.Res <= 0 {
		cfg.Res = 256
	}
	if cfg.SnapshotTimeout <= 0 {
		cfg.SnapshotTimeout = 30 * time.Second
	}
	sh := &Shard{cfg: cfg, reg: cfg.Registry, entries: map[serve.Key]*shardEntry{}}
	sh.reg.OnEvict(func(k serve.Key, _ *engine.Program) { sh.drop(k) })
	return sh
}

// Registry exposes the shard's program cache (tests pre-install tiny
// programs through it; /stats reads its footprint).
func (sh *Shard) Registry() *serve.Registry { return sh.reg }

// drop tears down the serving stack for an evicted key. The server
// close runs on its own goroutine: eviction fires inside a request
// that is admitting a different model, and that request must not pay
// for draining this one's queue.
func (sh *Shard) drop(k serve.Key) {
	sh.mu.Lock()
	e := sh.entries[k]
	delete(sh.entries, k)
	sh.mu.Unlock()
	if e != nil && e.srv != nil {
		go e.srv.Close()
	}
}

// entry returns the serving stack for a key, building it on first
// request. Concurrent requests for the same key block on one build;
// distinct keys build independently (same discipline as the registry).
func (sh *Shard) entry(k serve.Key) (*shardEntry, error) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, fmt.Errorf("fleet: shard is closed")
	}
	e := sh.entries[k]
	if e == nil {
		e = &shardEntry{}
		sh.entries[k] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() { e.srv, e.h, e.err = sh.build(k) })
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

func (sh *Shard) build(k serve.Key) (*serve.Server, http.Handler, error) {
	prog, err := sh.program(k)
	if err != nil {
		return nil, nil, err
	}
	pipe, err := sh.pipeFor(k, prog)
	if err != nil {
		return nil, nil, err
	}
	srv := serve.NewServer(prog, sh.cfg.Serve)
	key := k
	h := serve.NewHandler(srv, serve.HandlerConfig{
		InputH: sh.cfg.Res, InputW: sh.cfg.Res,
		Detect:      pipe,
		Labels:      sh.cfg.Labels,
		ShedLoad:    sh.cfg.ShedLoad,
		SnapshotKey: &key,
	})
	return srv, h, nil
}

// program resolves a key's Program: warm handoff from the first peer
// that has it, cold build otherwise.
func (sh *Shard) program(k serve.Key) (*engine.Program, error) {
	for _, peer := range sh.cfg.WarmFrom {
		prog, err := serve.FetchSnapshot(context.Background(), peer, k, sh.cfg.SnapshotTimeout)
		if err != nil {
			continue // peer down or key not resident there: try the next
		}
		return sh.reg.Install(k, prog)
	}
	return sh.reg.Program(k)
}

func (sh *Shard) pipeFor(k serve.Key, prog *engine.Program) (detect.Config, error) {
	if sh.cfg.PipeFor != nil {
		return sh.cfg.PipeFor(k, prog)
	}
	spec, err := models.HeadByName(k.Arch, models.KITTIClasses)
	if err != nil {
		return detect.Config{}, err
	}
	if s := spec.MaxStride(); sh.cfg.Res%s != 0 {
		return detect.Config{}, fmt.Errorf("fleet: shard resolution %d is not a multiple of the %s head stride %d", sh.cfg.Res, k.Arch, s)
	}
	return detect.Config{Spec: spec, ExactMath: sh.cfg.Exact}, nil
}

// Handler serves the shard's HTTP surface: the per-model /detect and
// /program routes dispatched by model key, plus shard-level
// /healthz and merged /stats. /stream is not proxied at the fleet
// tier, so the shard answers 501 for symmetry with the router.
func (sh *Shard) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, sh.statsDoc())
	})
	mux.HandleFunc("GET /program", func(w http.ResponseWriter, r *http.Request) {
		// Snapshots serve resident keys only: a donor must never pay a
		// cold build to satisfy a peer that would otherwise build the
		// same thing itself.
		k, err := KeyFromQuery(r.URL.Query(), sh.cfg.Default)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		e := sh.resident(k)
		if e == nil {
			http.Error(w, fmt.Sprintf("fleet: %v is not resident on this shard", k), http.StatusNotFound)
			return
		}
		e.h.ServeHTTP(w, r)
	})
	serveModel := func(w http.ResponseWriter, r *http.Request) {
		k, err := KeyFromQuery(r.URL.Query(), sh.cfg.Default)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		e, err := sh.entry(k)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		e.h.ServeHTTP(w, r)
	}
	mux.HandleFunc("POST /detect", serveModel)
	mux.HandleFunc("POST /stream", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "fleet: /stream is not served at the fleet tier; run rtoss serve for streaming sessions", http.StatusNotImplemented)
	})
	return mux
}

// resident returns the built entry for a key without triggering a
// build, nil when absent (or still building, or failed).
func (sh *Shard) resident(k serve.Key) *shardEntry {
	sh.mu.Lock()
	e := sh.entries[k]
	sh.mu.Unlock()
	if e == nil || e.srv == nil || e.err != nil {
		return nil
	}
	return e
}

// statsDoc merges every resident model's serve stats with the shard's
// registry accounting.
func (sh *Shard) statsDoc() map[string]any {
	bytes, evictions := sh.reg.Footprint()
	keys := sh.reg.Keys()
	resident := make([]string, len(keys))
	for i, k := range keys {
		resident[i] = k.String()
	}
	modelStats := map[string]any{}
	sh.mu.Lock()
	built := make(map[serve.Key]*shardEntry, len(sh.entries))
	for k, e := range sh.entries {
		built[k] = e
	}
	sh.mu.Unlock()
	for k, e := range built {
		if e.srv != nil && e.err == nil {
			modelStats[k.String()] = serve.StatsJSON(e.srv.Stats())
		}
	}
	return map[string]any{
		"shard": map[string]any{
			"resident":        resident,
			"footprint_bytes": bytes,
			"evictions":       evictions,
		},
		"models": modelStats,
	}
}

// Close tears down every resident serving stack.
func (sh *Shard) Close() {
	sh.mu.Lock()
	sh.closed = true
	entries := sh.entries
	sh.entries = map[serve.Key]*shardEntry{}
	sh.mu.Unlock()
	for _, e := range entries {
		if e.srv != nil {
			e.srv.Close()
		}
	}
}
