package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultsFile is what a run of every workload leaves in
// <out>/results.json, and what -compare reads.
type resultsFile struct {
	Runs []*runResult `json:"runs"`
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runAll runs every workload of the spec, each run in a fresh child
// process so that pools, GC state and peak RSS never carry over: runs
// untraced runs per workload on consecutive seeds, and one traced run
// on the first seed. It prints every metric by name and reports
// whether every run was correct.
func runAll(spec *Spec, seed uint64, seconds float64, runs int, outDir string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	var all resultsFile
	for _, w := range spec.Workloads {
		for i := 0; i <= runs; i++ {
			trace := i == runs // the traced run comes last, on the first seed
			s := seed + uint64(i)
			if trace {
				s = seed
			}
			res, err := runChild(exe, w.Name, s, seconds, trace, outDir)
			if err != nil {
				return false, err
			}
			all.Runs = append(all.Runs, res)
		}
	}
	ok := printTable(spec, &all)
	return ok, writeJSONFile(filepath.Join(outDir, "results.json"), &all)
}

// runChild makes one run in a child process and reads back its result
// file. A child that reports a failed check exits 1 and still leaves
// its result; any other failure is an error.
func runChild(exe, workload string, seed uint64, seconds float64, trace bool, outDir string) (*runResult, error) {
	t := "0"
	if trace {
		t = "1"
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %s\n", workload, seed, t)
	path := runFile(outDir, workload, seed, trace)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", outDir)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s) left no result: %v", workload, t, runErr)
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// of returns a workload's untraced or traced runs.
func (f *resultsFile) of(workload string, trace bool) []*runResult {
	var out []*runResult
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

// values collects one metric over runs.
func values(runs []*runResult, name string) (xs []float64, samples int) {
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
			samples += m.Samples
		}
	}
	return xs, samples
}

// failRate is failed over attempted operations across runs.
func failRate(runs []*runResult) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// printTable prints every metric of every workload: end-to-end metrics
// as the median over the untraced runs with their run-to-run spread
// against the bound, per-layer metrics from the traced run.
func printTable(spec *Spec, all *resultsFile) bool {
	ok := true
	p50 := map[string]float64{}
	for _, w := range spec.Workloads {
		un, tr := all.of(w.Name, false), all.of(w.Name, true)
		fmt.Printf("\n== %s  (%d untraced runs, fail_rate %.4g)\n", w.Name, len(un), failRate(append(un, tr...)))
		for _, r := range append(un, tr...) {
			ok = ok && r.Correct
			for _, note := range r.Notes {
				fmt.Printf("   note (seed %d trace %v): %s\n", r.Seed, r.Trace, note)
			}
		}
		for _, m := range spec.EndToEnd {
			xs, n := values(un, m.Name)
			line := fmt.Sprintf("  %-28s %14.6g %-9s n=%-6d", m.Name, median(xs), m.Unit, n)
			if len(xs) >= 2 {
				line += fmt.Sprintf(" spread %.2f%% of bound %.1f%%", 100*spread(xs), 100*m.Bound)
			}
			fmt.Println(line)
		}
		xs, _ := values(un, "latency_p50_ms")
		p50[w.Name] = median(xs)
		for _, m := range spec.PerLayer {
			if len(tr) > 0 && tr[0].Metrics[m.Name].NA {
				fmt.Printf("  %-28s %14s\n", m.Name, "n/a")
				continue
			}
			xs, n := values(tr, m.Name)
			fmt.Printf("  %-28s %14.6g %-9s n=%d\n", m.Name, median(xs), m.Unit, n)
		}
	}
	if s, d := p50[wSparseFrame], p50[wDenseFrame]; s > 0 && d > 0 {
		fmt.Printf("\nspeedup_vs_dense %.3f x  (latency_p50_ms of %s / %s; informational, not gated)\n", d/s, wDenseFrame, wSparseFrame)
	}
	return ok
}
