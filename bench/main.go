// Command bench is the repository's one benchmark: four named workloads
// over the whole stack, end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run. BENCHMARK.json at the
// root of the repository declares the names; README.md explains them.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run of one workload; the last line of standard output is
//	    {"correct","attempted","failed","metrics"}.
//	bench [-seed n] [-runs k] [-out dir]
//	    every workload in a fresh child process each, untraced then
//	    traced, as a table; writes <out>/results.json.
//	bench -compare A.json B.json
//	    holds the second results file against the first.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rtoss/internal/engine"
)

// specPath is the benchmark's declaration, read from the root of the
// checkout, which is where run.sh starts the program.
const specPath = "BENCHMARK.json"

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all for every workload in child processes")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of the spec)")
		trace    = flag.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
		out      = flag.String("out", "bench/out", "directory for trace and result files")
		runs     = flag.Int("runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two results files: bench -compare A.json B.json")
	)
	flag.Parse()
	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload == "all":
		ok, err := runAll(spec, *seed, *seconds, *runs, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if !spec.hasWorkload(*workload) {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		r := newRunResult(spec, *workload, *seed, *trace == 1, *seconds)
		if err := runWorkload(r, *out); err != nil {
			fatal(err)
		}
		if err := r.finish(); err != nil {
			fatal(err)
		}
		if err := writeJSONFile(runFile(*out, r.Workload, r.Seed, r.Trace), r); err != nil {
			fatal(err)
		}
		for _, note := range r.Notes {
			fmt.Fprintln(os.Stderr, "bench:", note)
		}
		fmt.Println(r.lastLine())
		os.Exit(r.exitCode())
	}
}

func runWorkload(r *runResult, outDir string) error {
	switch r.Workload {
	case wSparseFrame:
		return runFrame(r, engine.ModeSparse, outDir)
	case wDenseFrame:
		return runFrame(r, engine.ModeDense, outDir)
	case wSparseStream:
		return runStream(r, outDir)
	case wRoutedHTTP:
		return runHTTP(r, outDir)
	}
	return fmt.Errorf("workload %q is declared in the spec but not implemented", r.Workload)
}

// runFile names the detailed result of one run.
func runFile(outDir, workload string, seed uint64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-seed%d-trace%d.json", workload, seed, t))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
