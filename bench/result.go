package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported number. Samples is how many measurements it
// summarises (0 for a plain count or ratio).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	NA      bool    `json:"not_applicable,omitempty"` // a per-layer metric this workload has no layer for
}

// runResult is everything one run of one workload reports. Its last
// line on standard output is the driver's contract; the whole struct
// goes to <out>/run-*.json with the settings echoed.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Seconds    float64           `json:"seconds"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Counts     map[string]int    `json:"op_counts"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Notes      []string          `json:"notes,omitempty"`

	spec *Spec
}

func newRunResult(spec *Spec, workload string, seed uint64, trace bool, seconds float64) *runResult {
	return &runResult{
		Workload: workload, Seed: seed, Trace: trace, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Counts: map[string]int{}, Metrics: map[string]metric{}, spec: spec,
	}
}

// share is the given share of the run's measured length.
func (r *runResult) share(f float64) time.Duration {
	return time.Duration(f * r.Seconds * float64(time.Second))
}

// emit reports one metric by its BENCHMARK.json name. A name the spec
// does not declare for this kind of run is a bug in the harness.
func (r *runResult) emit(name string, value float64, samples int) {
	for _, m := range r.spec.metrics(r.Trace) {
		if m.Name == name {
			r.Metrics[name] = metric{Value: value, Unit: m.Unit, Samples: samples}
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not declared in BENCHMARK.json for trace=%v", name, r.Trace))
}

// emitTimes reports the median of a series of timings.
func (r *runResult) emitTimes(name string, xs []float64) {
	r.emit(name, median(xs), len(xs))
}

// fail records n operations that failed or failed a correctness check.
func (r *runResult) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf("FAILED (%d): ", n)+fmt.Sprintf(format, args...))
}

// finish settles the verdict and completes the metric set: a per-layer
// metric that does not apply to this workload reads 0, while a missing
// end-to-end metric is an error, since every workload reports them all.
func (r *runResult) finish() error {
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
	for _, m := range r.spec.metrics(r.Trace) {
		if _, ok := r.Metrics[m.Name]; ok {
			continue
		}
		if !r.Trace {
			return fmt.Errorf("workload %s did not report end-to-end metric %s", r.Workload, m.Name)
		}
		r.Metrics[m.Name] = metric{Unit: m.Unit, NA: true}
	}
	return nil
}

// exitCode is 1 for a run with a failed operation or check.
func (r *runResult) exitCode() int {
	if r.Correct {
		return 0
	}
	return 1
}

// lastLine is the one JSON object the driver reads.
func (r *runResult) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for k, m := range r.Metrics {
		ms[k] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms})
	return string(b)
}

// usage is what one timed phase cost the whole process, the load
// generator included.
type usage struct {
	wall    time.Duration
	cpu     time.Duration // user + system
	mallocs uint64
	peakRSS float64 // MB, the process's high-water mark when the phase ended
}

// measure runs f and reports wall time, CPU time and heap allocations
// across it.
func measure(f func()) usage {
	var u usage
	u.mallocs = mallocsOf(func() {
		c0, t0 := cpuTime(), time.Now()
		f()
		u.wall, u.cpu = time.Since(t0), cpuTime()-c0
	})
	u.peakRSS = float64(rusage().Maxrss) / 1024 // Linux reports KiB
	return u
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocsOf counts the heap allocations f makes.
func mallocsOf(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// emitEndToEnd reports the metrics every workload shares from its timed
// phase: lat are per-image latencies in ms, images the images completed.
func (r *runResult) emitEndToEnd(setupS []float64, lat []float64, images int, u usage, programBytes int64) {
	n := float64(max(images, 1))
	r.emitTimes("setup_s", setupS)
	r.Notes = append(r.Notes, fmt.Sprintf("set-up times (s): %.4f", setupS))
	r.emit("latency_p50_ms", percentile(lat, 0.50), len(lat))
	r.emit("latency_tail_ms", percentile(lat, tailPercentile(nominalSamples[r.Workload])), len(lat))
	r.emit("throughput_ips", float64(images)/u.wall.Seconds(), images)
	r.emit("cpu_ms_per_image", msOf(u.cpu)/n, images)
	r.emit("allocs_per_image", float64(u.mallocs)/n, images)
	r.emit("peak_rss_mb", u.peakRSS, 0)
	r.emit("program_mb", float64(programBytes)/1e6, 0)
	if len(lat) < nominalSamples[r.Workload] {
		r.Notes = append(r.Notes, fmt.Sprintf("only %d latency samples, below the nominal %d the tail percentile was chosen for", len(lat), nominalSamples[r.Workload]))
	}
}
