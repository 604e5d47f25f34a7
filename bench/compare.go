package main

import (
	"fmt"
	"io"
)

// A verdict is how one workload x metric pair of the second results
// file stands against the first.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // worse by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread exceeds the bound: neither unchanged nor regressed
)

// judge compares the medians of one end-to-end metric. worse is the
// share of the first median by which the second is worse (negative when
// it is better).
func judge(m MetricSpec, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case max(spread(a), spread(b)) > m.Bound:
		return worse, verdictUnresolved
	case worse > m.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether anything regressed or any workload's fail rate rose.
func compareFiles(w io.Writer, spec *Spec, pathA, pathB string) (bad bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-20s %-20s %13s %13s %8s %7s %8s %8s  %s\n", "workload", "metric", "first", "second", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.of(wl.Name, false), b.of(wl.Name, false)
		if len(ra) == 0 || len(rb) == 0 {
			return false, fmt.Errorf("workload %s is missing from one of the files", wl.Name)
		}
		for _, m := range spec.EndToEnd {
			xa, _ := values(ra, m.Name)
			xb, _ := values(rb, m.Name)
			worse, verdict := judge(m, xa, xb)
			bad = bad || verdict == verdictRegressed
			fmt.Fprintf(w, "%-20s %-20s %13.6g %13.6g %+7.2f%% %6.1f%% %7.2f%% %7.2f%%  %s\n",
				wl.Name, m.Name, median(xa), median(xb), 100*worse, 100*m.Bound, 100*spread(xa), 100*spread(xb), verdict)
		}
		fa, fb := failRate(ra), failRate(rb)
		verdict := verdictOK
		if fb > fa {
			verdict, bad = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-20s %-20s %13.6g %13.6g %8s %7s %8s %8s  %s\n", wl.Name, "fail_rate", fa, fb, "", "none", "", "", verdict)
	}
	return bad, nil
}
