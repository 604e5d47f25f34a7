package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Spec mirrors BENCHMARK.json, the one declaration of workloads, metric
// names, units, directions and regression bounds. The program reads it
// at start-up instead of repeating it, so a metric exists in exactly
// one place.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func loadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *Spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics returns the set a run must print: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func (s *Spec) metrics(trace bool) []MetricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// The workload names fixed by BENCHMARK.json; later issues refer to them.
const (
	wSparseFrame  = "yolo-sparse-frame"
	wDenseFrame   = "yolo-dense-frame"
	wSparseStream = "yolo-sparse-stream"
	wRoutedHTTP   = "tiny-routed-http"
)

// moves records, for each layer, which end-to-end metric its per-layer
// metrics are expected to move and on which workloads — the prediction
// a later perf change is checked against (bench/README.md has the
// prose). A test holds every name here to BENCHMARK.json.
var moves = []struct {
	Layer     string // prefix of the per-layer metric names
	EndToEnd  []string
	Workloads []string
}{
	{"core.", []string{"setup_s", "program_mb"}, []string{wSparseFrame, wDenseFrame, wSparseStream}},
	{"sparse.", []string{"setup_s", "program_mb"}, []string{wSparseFrame, wSparseStream}},
	{"engine.", []string{"latency_p50_ms", "cpu_ms_per_image", "allocs_per_image", "throughput_ips"}, []string{wSparseFrame, wDenseFrame, wSparseStream}},
	{"tensor.conv_", []string{"latency_p50_ms", "cpu_ms_per_image", "throughput_ips"}, []string{wSparseFrame, wDenseFrame, wSparseStream}},
	{"tensor.maxpool_", []string{"allocs_per_image", "latency_p50_ms"}, []string{wSparseFrame, wDenseFrame, wSparseStream}},
	{"tensor.decode_", []string{"latency_p50_ms", "throughput_ips", "allocs_per_image"}, []string{wRoutedHTTP}},
	{"tensor.letterbox_", []string{"latency_p50_ms", "throughput_ips"}, []string{wRoutedHTTP}},
	{"tensor.ingest_", []string{"allocs_per_image"}, []string{wRoutedHTTP}},
	{"detect.", []string{"latency_p50_ms"}, []string{wRoutedHTTP}},
	{"serve.", []string{"latency_tail_ms", "throughput_ips"}, []string{wSparseStream, wRoutedHTTP}},
	{"stream.", []string{"throughput_ips", "latency_p50_ms", "latency_tail_ms"}, []string{wSparseStream}},
	{"fleet.", []string{"latency_p50_ms", "latency_tail_ms"}, []string{wRoutedHTTP}},
	{"hw.", nil, []string{wSparseFrame, wDenseFrame}}, // validity of the analytic model only
	{"gen.", nil, []string{wSparseStream}},            // validity of the open-loop generator only
	{"trace.", nil, []string{wSparseFrame, wDenseFrame, wSparseStream, wRoutedHTTP}},
}
