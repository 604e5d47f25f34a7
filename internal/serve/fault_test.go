package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/faultinject"
)

// fault_test.go covers the hardened failure paths: worker panic
// isolation, the stuck-batch watchdog, and the registry's injected
// build failures, eviction storms and graceful close.

// TestWorkerPanicIsolation is the robustness acceptance test: inject a
// panic into a batch-executor worker under concurrent HTTP load and
// assert the process survives, exactly the poisoned request fails with
// 500, every co-batched request still gets an explicit answer (success
// or 503 — never a hang), and /stats reports the panic.
func TestWorkerPanicIsolation(t *testing.T) {
	p := tinyProgram(t)
	inj := faultinject.New(1, faultinject.Plan{
		faultinject.PointExecPanic: {P: 1, Max: 1},
	})
	s := NewServer(p, Config{MaxBatch: 4, Workers: 2, QueueCap: 64, FaultInjector: inj})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32,
		Detect: detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05},
	}))
	defer ts.Close()
	ppm := samplePPM(t)

	const n = 32
	var wg sync.WaitGroup
	var ok, failed500, shed503, other atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/detect", "application/octet-stream", bytes.NewReader(ppm))
			if err != nil {
				t.Errorf("transport error (a panic must never tear the connection): %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusInternalServerError:
				failed500.Add(1)
			case http.StatusServiceUnavailable:
				shed503.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	// Every request must come back: a missing answer would deadlock
	// wg.Wait, caught by the test timeout.
	wg.Wait()

	if other.Load() != 0 {
		t.Errorf("unexpected status class: %d requests outside {200, 500, 503}", other.Load())
	}
	if failed500.Load() != 1 {
		t.Errorf("injected exactly 1 panic, got %d 500s (only the poisoned request may fail with 500)", failed500.Load())
	}
	if got := ok.Load() + failed500.Load() + shed503.Load() + other.Load(); got != n {
		t.Fatalf("answered %d of %d requests", got, n)
	}
	st := s.Stats()
	if st.Panics != 1 {
		t.Errorf("stats.Panics = %d, want 1", st.Panics)
	}

	// The process survived: the respawned worker serves a clean request.
	resp, err := http.Post(ts.URL+"/detect", "application/octet-stream", bytes.NewReader(ppm))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request answered %d, want 200 (worker pool must respawn)", resp.StatusCode)
	}
}

// TestStuckBatchWatchdog pins the watchdog contract: a batch stalled
// past its allowance gets answered with 503 (ErrStuckBatch) instead of
// hanging its clients, the stat increments, and the worker serves
// again once the stall clears.
func TestStuckBatchWatchdog(t *testing.T) {
	p := tinyProgram(t)
	inj := faultinject.New(1, faultinject.Plan{
		faultinject.PointExecStall: {P: 1, Max: 1, Delay: 400 * time.Millisecond},
	})
	s := NewServer(p, Config{MaxBatch: 2, Workers: 1, QueueCap: 16, Watchdog: 40 * time.Millisecond, FaultInjector: inj})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32,
		Detect: detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05},
	}))
	defer ts.Close()
	ppm := samplePPM(t)

	start := time.Now()
	resp, err := http.Post(ts.URL+"/detect", "application/octet-stream", bytes.NewReader(ppm))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled batch answered %d, want 503 from the watchdog", resp.StatusCode)
	}
	if waited := time.Since(start); waited >= 400*time.Millisecond {
		t.Errorf("client waited out the whole %v stall (%v); the watchdog should have answered early", 400*time.Millisecond, waited)
	}
	if st := s.Stats(); st.StuckBatches != 1 {
		t.Errorf("stats.StuckBatches = %d, want 1", st.StuckBatches)
	}

	// Once the stall clears the same worker keeps serving.
	time.Sleep(450 * time.Millisecond)
	resp, err = http.Post(ts.URL+"/detect", "application/octet-stream", bytes.NewReader(ppm))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-stall request answered %d, want 200", resp.StatusCode)
	}
}

// TestRegistryInjectedBuildFailureNotCached: an injected build failure
// must degrade one request, not poison the key — the next request for
// the same key re-runs the build. (A real build error stays cached, as
// the second call's distinct error proves.)
func TestRegistryInjectedBuildFailureNotCached(t *testing.T) {
	r := NewRegistry()
	inj := faultinject.New(1, faultinject.Plan{
		faultinject.PointRegistryBuild: {P: 1, Max: 1},
	})
	r.SetFaultInjector(inj)
	k := Key{Arch: "NoSuchArch", Variant: "dense", Mode: engine.ModeSparse}

	_, err1 := r.Program(k)
	if !errors.Is(err1, faultinject.ErrInjected) {
		t.Fatalf("first build error = %v, want the injected failure", err1)
	}
	// The injector is exhausted (Max: 1), so a second call re-running
	// the build hits the real error for the unknown architecture. If
	// the injected error had been cached we'd see it again instead.
	_, err2 := r.Program(k)
	if err2 == nil {
		t.Fatal("second build unexpectedly succeeded for an unknown architecture")
	}
	if errors.Is(err2, faultinject.ErrInjected) {
		t.Fatalf("second build error = %v; the injected failure was cached", err2)
	}
	// The real error is cached as documented.
	_, err3 := r.Program(k)
	if err3 == nil || err3.Error() != err2.Error() {
		t.Fatalf("real build error not cached: third call returned %v, second %v", err3, err2)
	}
}

// TestRegistryCloseEvictsThroughOnEvict: Close drains every cached
// Program through the OnEvict hook (the graceful-shutdown path), fails
// later calls with ErrRegistryClosed, and is idempotent.
func TestRegistryCloseEvictsThroughOnEvict(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	evicted := map[Key]bool{}
	r.OnEvict(func(k Key, _ *engine.Program) {
		mu.Lock()
		evicted[k] = true
		mu.Unlock()
	})
	p := tinyProgram(t)
	keys := []Key{
		{Arch: "A", Variant: "dense", Mode: engine.ModeSparse},
		{Arch: "B", Variant: "dense", Mode: engine.ModeSparse},
	}
	for _, k := range keys {
		if _, err := r.Install(k, p); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	r.Close() // idempotent
	mu.Lock()
	for _, k := range keys {
		if !evicted[k] {
			t.Errorf("key %v was not evicted through OnEvict on Close", k)
		}
	}
	mu.Unlock()
	if _, err := r.Program(keys[0]); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("Program after Close = %v, want ErrRegistryClosed", err)
	}
	if _, err := r.Install(keys[0], p); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("Install after Close = %v, want ErrRegistryClosed", err)
	}
}

// TestRegistryEvictionRacesActiveServe hammers one key with concurrent
// Install/Program calls while eviction pressure (a tiny budget plus an
// injected eviction storm) churns the cache. The key being served must
// always come back usable — the spare rule protects the active
// Program — and the counters must stay consistent. Run under -race.
func TestRegistryEvictionRacesActiveServe(t *testing.T) {
	r := NewRegistry()
	inj := faultinject.New(3, faultinject.Plan{
		faultinject.PointRegistryEvict: {P: 0.5},
	})
	r.SetFaultInjector(inj)
	p := tinyProgram(t)
	// Budget fits roughly one tiny program: every install of a second
	// key forces the other out.
	r.SetBudget(p.MemoryBytes() + 1)
	var closes atomic.Int64
	r.OnEvict(func(Key, *engine.Program) { closes.Add(1) })

	hot := Key{Arch: "HOT", Variant: "dense", Mode: engine.ModeSparse}
	const workers = 4
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			churn := Key{Arch: fmt.Sprintf("CHURN%d", w), Variant: "dense", Mode: engine.ModeSparse}
			for i := 0; i < rounds; i++ {
				got, err := r.Install(hot, p)
				if err != nil {
					t.Errorf("worker %d: Install(hot) failed: %v", w, err)
					return
				}
				if got == nil {
					t.Errorf("worker %d: Install(hot) returned nil program", w)
					return
				}
				if _, err := r.Install(churn, p); err != nil {
					t.Errorf("worker %d: Install(churn) failed: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The hot key must still be servable (or rebuild cleanly) after the
	// churn — it was the most recently used in every worker's loop.
	if _, err := r.Install(hot, p); err != nil {
		t.Fatalf("hot key unusable after eviction churn: %v", err)
	}
	_, evictions := r.Footprint()
	if evictions == 0 {
		t.Error("no evictions happened; the race this test exists for was not exercised")
	}
}
