package main

import (
	"math"

	"rtoss/internal/detect"
	"rtoss/internal/stream"
)

// check.go holds the correctness checks. Each is a plain predicate so a
// test can hand it a mismatch; a workload turns a false into failed
// operations, which sets "correct": false and the exit code.

// boxesEqual reports whether two detection lists are identical, bit for
// bit and in order: what re-running the same bytes must give.
func boxesEqual(a, b []detect.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// boxesClose reports whether two detection lists agree in count and
// every box of a has its own partner in b of the same class within tol
// on all four coordinates and the score — the sparse-versus-dense
// parity rule, which must not depend on how near-ties were ordered.
func boxesClose(a, b []detect.Detection, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
next:
	for _, x := range a {
		for j, y := range b {
			if !used[j] && x.Class == y.Class && near(x.Score, y.Score, tol) &&
				near(x.Box.X1, y.Box.X1, tol) && near(x.Box.Y1, y.Box.Y1, tol) &&
				near(x.Box.X2, y.Box.X2, tol) && near(x.Box.Y2, y.Box.Y2, tol) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// streamConserved is the session invariant: every accepted frame
// resolves exactly one way.
func streamConserved(s stream.Summary) bool {
	return s.FramesIn == s.FramesServed+s.DroppedStale+s.DroppedDeadline+s.Errors
}

// routerConserved is the router invariant over its settled counters.
func routerConserved(st map[string]uint64) bool {
	return st["requests"] == st["success"]+st["passthrough"]+st["exhausted"]+st["rejected"]
}
