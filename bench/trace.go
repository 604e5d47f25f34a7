package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the harness around
// the call (the program under test is not instrumented). Spans of one
// request share Req; Parent is the ID of the span that caused this one,
// -1 for a root. Rebased marks a span of a ladder (see addLadder) whose
// length is derived, not clocked.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Rebased bool   `json:"rebased,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is the untraced run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one span and returns its ID for children to name.
func (r *recorder) add(name string, parent, req int, start time.Time, dur time.Duration, rebased bool) int {
	if r == nil {
		return -1
	}
	s := start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Req: req, StartNS: s, EndNS: s + dur.Nanoseconds(), Rebased: rebased})
	return id
}

// rung is one level of a span ladder: a call timed from outside, and
// the pipeline time (decode + letterbox + forward + postprocess) which
// that same call reported for itself in detect.Timing. Their difference
// is what the rung's layer added on top of the pipeline.
type rung struct {
	name          string
	dur, pipeline time.Duration
}

func (g rung) overhead() time.Duration { return g.dur - g.pipeline }

// addLadder records one request that entered at rungs[0]. What happens
// inside that call — the shard behind the router, the server behind the
// session — cannot be seen from outside, so the harness re-executes the
// same bytes at each lower public entry point right afterwards. Two
// executions of a forward differ by more than a thin layer costs, so
// the rungs are compared by overhead, not by duration: a lower rung is
// drawn inside the top one with the top call's length less the
// difference of their overheads. A rung's self time is then exactly
// its overhead above the next rung, and the last rung's is its own.
// stages are the four pipeline times the top call reported.
func (r *recorder) addLadder(req int, start time.Time, rungs []rung, stages [4]time.Duration) {
	if r == nil {
		return
	}
	top := rungs[0]
	parent := r.add(top.name, -1, req, start, top.dur, false)
	for _, g := range rungs[1:] {
		parent = r.add(g.name, parent, req, start, top.dur-top.overhead()+g.overhead(), true)
	}
	recordStages(r, parent, req, start, stages, true)
}

// selfTimes returns, per span name, each span's self time in
// milliseconds: its duration minus the part of its interval that its
// child spans cover. Overlapping children are counted once, and a child
// reaching outside its parent only counts for the part inside.
func selfTimes(spans []span) map[string][]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := int64(0), s.StartNS
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-covered)/1e6)
	}
	return out
}

// traceFile is what a traced run leaves in <out>/trace-<workload>.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Spans    []span       `json:"spans"`
	Layers   []layerTrace `json:"layers,omitempty"` // kernel replay, YOLO workloads
}

// writeTrace leaves a traced run's spans, and its per-layer table if it
// has one, in <outDir>/trace-<workload>.json.
func writeTrace(outDir string, r *runResult, rec *recorder, layers []layerTrace) error {
	return writeJSONFile(filepath.Join(outDir, "trace-"+r.Workload+".json"),
		traceFile{Workload: r.Workload, Seed: r.Seed, Spans: rec.spans, Layers: layers})
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
