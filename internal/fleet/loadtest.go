package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtoss/internal/kitti"
	"rtoss/internal/serve"
	"rtoss/internal/tensor"
)

// LoadConfig parameterises one closed-loop load test: Concurrency
// workers each fire /detect requests back-to-back against URL for
// Duration, cycling through pre-rendered synthetic-KITTI images and
// the configured model-key mix. It is a load generator, not a
// benchmark: RunChaos's load phase, the failover tests and the CI
// fleet job gate correctness on its report, which is why it lives here
// and not in bench/.
type LoadConfig struct {
	// URL is the router (or single shard) base URL.
	URL string
	// Duration is the firing window (default 5s).
	Duration time.Duration
	// Concurrency is the worker count (default 4).
	Concurrency int
	// Keys is the model-key traffic mix, cycled round-robin. Empty
	// sends no routing parameters (the target's default key serves).
	Keys []serve.Key
	// Scenes is the distinct pre-rendered image count (default 4).
	Scenes int
	// SceneW, SceneH are the rendered image dimensions (default
	// 320x192).
	SceneW, SceneH int
	// Seed drives scene rendering (default 1).
	Seed uint64
	// Score, IoU override the detect thresholds when positive.
	Score, IoU float64
	// Timeout bounds each request (default 10s).
	Timeout time.Duration
}

// LoadReport is the load-test result, JSON-shaped for the CI artifact.
type LoadReport struct {
	URL         string  `json:"url"`
	DurationSec float64 `json:"duration_s"`
	Concurrency int     `json:"concurrency"`

	Requests  int64 `json:"requests"`
	Success   int64 `json:"success"`
	ClientErr int64 `json:"client_errors"` // 4xx
	ServerErr int64 `json:"server_errors"` // 5xx
	NetErr    int64 `json:"net_errors"`    // transport failures / timeouts

	ByStatus map[string]int64 `json:"by_status,omitempty"`
	ByKey    map[string]int64 `json:"by_key,omitempty"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
}

// RunLoad executes the load test. Images are rendered and PPM-encoded
// once up front, so the measured path is purely HTTP + serving.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("fleet: loadtest needs a target URL")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Scenes <= 0 {
		cfg.Scenes = 4
	}
	if cfg.SceneW <= 0 {
		cfg.SceneW = 320
	}
	if cfg.SceneH <= 0 {
		cfg.SceneH = 192
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	images, err := renderImages(cfg)
	if err != nil {
		return nil, err
	}
	targets, err := buildTargets(cfg)
	if err != nil {
		return nil, err
	}

	client := &http.Client{}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(cfg.Duration)
	var next atomic.Int64
	results := make([]workerResult, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(res *workerResult) {
			defer wg.Done()
			res.byStatus = map[int]int64{}
			res.byKey = map[string]int64{}
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				tgt := targets[int(i)%len(targets)]
				img := images[int(i)%len(images)]
				res.fire(client, tgt, img, cfg.Timeout)
			}
		}(&results[w])
	}
	wg.Wait()
	return reduce(cfg, time.Since(start), results), nil
}

// target is one pre-encoded request destination (URL with routing and
// threshold parameters baked in) plus its key label for accounting.
type target struct {
	url   string
	label string
}

func buildTargets(cfg LoadConfig) ([]target, error) {
	base, err := url.Parse(cfg.URL)
	if err != nil {
		return nil, fmt.Errorf("fleet: loadtest URL %q: %w", cfg.URL, err)
	}
	keys := cfg.Keys
	labels := make([]string, len(keys))
	for i, k := range keys {
		labels[i] = k.String()
	}
	if len(keys) == 0 {
		labels = []string{"default"}
	}
	out := make([]target, 0, len(labels))
	for i, label := range labels {
		u := *base.JoinPath("detect")
		q := u.Query()
		if len(keys) > 0 {
			q.Set("key", keys[i].String())
		}
		if cfg.Score > 0 {
			q.Set("score", strconv.FormatFloat(cfg.Score, 'g', -1, 64))
		}
		if cfg.IoU > 0 {
			q.Set("iou", strconv.FormatFloat(cfg.IoU, 'g', -1, 64))
		}
		u.RawQuery = q.Encode()
		out = append(out, target{url: u.String(), label: label})
	}
	return out, nil
}

func renderImages(cfg LoadConfig) ([][]byte, error) {
	scenes := kitti.RenderedDataset(cfg.Seed, cfg.Scenes, cfg.SceneW, cfg.SceneH)
	images := make([][]byte, len(scenes))
	for i, rs := range scenes {
		var buf bytes.Buffer
		if err := tensor.EncodePPM(&buf, rs.Image); err != nil {
			return nil, fmt.Errorf("fleet: encoding scene %d: %w", i, err)
		}
		images[i] = buf.Bytes()
	}
	return images, nil
}

type workerResult struct {
	latencies []float64 // milliseconds, successes only
	byStatus  map[int]int64
	byKey     map[string]int64
	netErrs   int64
}

func (res *workerResult) fire(client *http.Client, tgt target, img []byte, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tgt.url, bytes.NewReader(img))
	if err != nil {
		res.netErrs++
		return
	}
	req.ContentLength = int64(len(img))
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		res.netErrs++
		res.byKey[tgt.label]++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	res.byStatus[resp.StatusCode]++
	res.byKey[tgt.label]++
	if resp.StatusCode == http.StatusOK {
		res.latencies = append(res.latencies, float64(time.Since(start))/float64(time.Millisecond))
	}
}

func reduce(cfg LoadConfig, elapsed time.Duration, results []workerResult) *LoadReport {
	rep := &LoadReport{
		URL:         cfg.URL,
		DurationSec: elapsed.Seconds(),
		Concurrency: cfg.Concurrency,
		ByStatus:    map[string]int64{},
		ByKey:       map[string]int64{},
	}
	var lat []float64
	for _, r := range results {
		rep.NetErr += r.netErrs
		lat = append(lat, r.latencies...)
		for code, n := range r.byStatus {
			rep.ByStatus[strconv.Itoa(code)] += n
			switch {
			case code >= 200 && code < 300:
				rep.Success += n
			case code >= 400 && code < 500:
				rep.ClientErr += n
			case code >= 500:
				rep.ServerErr += n
			}
		}
		for k, n := range r.byKey {
			rep.ByKey[k] += n
		}
	}
	rep.Requests = rep.Success + rep.ClientErr + rep.ServerErr + rep.NetErr
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Success) / elapsed.Seconds()
	}
	sort.Float64s(lat)
	rep.P50Ms = percentile(lat, 0.50)
	rep.P90Ms = percentile(lat, 0.90)
	rep.P99Ms = percentile(lat, 0.99)
	if n := len(lat); n > 0 {
		rep.MaxMs = lat[n-1]
	}
	return rep
}

// percentile reads the q-quantile from an ascending slice (nearest
// rank; 0 for an empty slice).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Render formats the report for a terminal.
func (r *LoadReport) Render() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "loadtest %s (%.1fs, %d workers)\n", r.URL, r.DurationSec, r.Concurrency)
	fmt.Fprintf(&b, "  requests:   %d (%.1f ok/s)\n", r.Requests, r.ThroughputRPS)
	fmt.Fprintf(&b, "  success:    %d\n", r.Success)
	fmt.Fprintf(&b, "  4xx:        %d\n", r.ClientErr)
	fmt.Fprintf(&b, "  5xx:        %d\n", r.ServerErr)
	fmt.Fprintf(&b, "  net errors: %d\n", r.NetErr)
	fmt.Fprintf(&b, "  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n", r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
	if len(r.ByKey) > 1 {
		keys := make([]string, 0, len(r.ByKey))
		for k := range r.ByKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  key %-30s %d\n", k, r.ByKey[k])
		}
	}
	return b.String()
}

// WriteJSON writes the report to a file (the CI latency artifact).
func (r *LoadReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
