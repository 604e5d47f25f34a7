package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/stream"
)

func testSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The tail percentile must leave at least ten samples beyond it at each
// workload's nominal count, and be the highest on the ladder that does.
func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	spec := testSpec(t)
	for _, w := range spec.Workloads {
		n, ok := nominalSamples[w.Name]
		if !ok {
			t.Fatalf("workload %s has no nominal sample count", w.Name)
		}
		p := tailPercentile(n)
		if beyond := n - rank(n, p); p > 0.5 && beyond < 10 {
			t.Errorf("%s: p%.0f of %d samples leaves only %d beyond", w.Name, 100*p, n, beyond)
		}
		for _, q := range tailLadder {
			if q > p && n-rank(n, q) >= 10 {
				t.Errorf("%s: p%.0f also leaves ten beyond at n=%d, but p%.0f was picked", w.Name, 100*q, n, 100*p)
			}
		}
	}
	for n, want := range map[int]float64{5: 0.50, 19: 0.50, 40: 0.75, 100: 0.90, 200: 0.95, 1000: 0.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %v, want 9", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the driver's spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.2, 9.5, 4.4, 4.9, 7.0, 1.0}, 2.2, 7.0},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
	if c := spearman([]float64{1, 2, 3, 4}, []float64{10, 30, 20, 40}); math.Abs(c-0.8) > 1e-12 {
		t.Errorf("spearman = %v, want 0.8", c)
	}
}

// A span's self time subtracts what its children cover: once where they
// overlap, and only the part inside the parent.
func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Name: "parent", Parent: -1, StartNS: 0, EndNS: 100 * ms},
		{ID: 1, Name: "a", Parent: 0, StartNS: 10 * ms, EndNS: 40 * ms},
		{ID: 2, Name: "b", Parent: 0, StartNS: 30 * ms, EndNS: 60 * ms},  // overlaps a by 10
		{ID: 3, Name: "c", Parent: 0, StartNS: 90 * ms, EndNS: 120 * ms}, // 20 outside the parent
		{ID: 4, Name: "leaf", Parent: 1, StartNS: 15 * ms, EndNS: 20 * ms},
		{ID: 5, Name: "other", Parent: -1, StartNS: 0, EndNS: 7 * ms},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"parent": 100 - 50 - 10, "a": 25, "b": 30, "c": 30, "leaf": 5, "other": 7} {
		if got := self[name]; len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
}

// In a ladder each rung's self time is its overhead above the next
// rung's, however the re-executed durations compare.
func TestLadderSelfTimeIsOverheadDifference(t *testing.T) {
	ms := time.Millisecond
	rec := newRecorder()
	stages := [4]time.Duration{1 * ms, 1 * ms, 300 * ms, 2 * ms} // the top call's own pipeline: 304
	rec.addLadder(7, time.Now(), []rung{
		{"stream.session", 310 * ms, 304 * ms}, // overhead 6
		{"serve.detect", 325 * ms, 320 * ms},   // a slower re-execution, overhead 5
	}, stages)
	self := selfTimes(rec.spans)
	for name, want := range map[string]float64{"stream.session": 1, "serve.detect": 5, "engine.heads": 300} {
		if got := self[name]; len(got) != 1 || math.Abs(got[0]-want) > 1e-6 {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	for _, s := range rec.spans {
		if s.Req != 7 {
			t.Errorf("span %s has req %d, want 7", s.Name, s.Req)
		}
	}
	var nilRec *recorder
	nilRec.addLadder(1, time.Now(), []rung{{"x", ms, 0}}, stages) // the untraced run: must not panic
	if id := nilRec.add("x", -1, 0, time.Now(), ms, false); id != -1 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}

func (s *Spec) endToEnd(name string) (MetricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSpec{}, false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json must stay inside the driver's limits, and every name
// the harness's tables use must exist in it.
func TestBenchmarkJSONSchema(t *testing.T) {
	spec := testSpec(t)
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("unexpected keys %v", keys)
	}
	if len(raw) > 64<<10 {
		t.Errorf("file is %d bytes, over 64 KiB", len(raw))
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	for _, arg := range spec.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not made of at most 64 letters, digits, _ . -", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	metric := func(kind string, m MetricSpec) {
		name(kind, m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range spec.EndToEnd {
		metric("end-to-end", m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m, ok := spec.endToEnd("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; got %+v", m)
	}
	for _, m := range spec.PerLayer {
		metric("per-layer", m)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		covered := false
		for _, mv := range moves {
			covered = covered || strings.HasPrefix(m.Name, mv.Layer)
		}
		if !covered {
			t.Errorf("per-layer metric %s belongs to no layer of the moves table", m.Name)
		}
	}
	// Every layer points at end-to-end metrics and workloads that exist.
	for _, mv := range moves {
		used := false
		for _, m := range spec.PerLayer {
			used = used || strings.HasPrefix(m.Name, mv.Layer)
		}
		if !used {
			t.Errorf("moves table layer %q has no per-layer metric", mv.Layer)
		}
		for _, e := range mv.EndToEnd {
			if _, ok := spec.endToEnd(e); !ok {
				t.Errorf("layer %q points at end-to-end metric %q, which does not exist", mv.Layer, e)
			}
		}
		for _, w := range mv.Workloads {
			if !spec.hasWorkload(w) {
				t.Errorf("layer %q points at workload %q, which does not exist", mv.Layer, w)
			}
		}
	}
}

// The seed is the only source of randomness: the same seed gives
// byte-identical inputs, codec order included, and another seed does not.
func TestSeedDeterminesInputs(t *testing.T) {
	for name, gen := range map[string]func(uint64) ([]input, error){
		"frame": frameInputs, "stream": streamInputs, "http": httpInputs,
	} {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: %d, %d and %d inputs", name, len(a), len(b), len(c))
		}
		differs := false
		for i := range a {
			if a[i].Codec != b[i].Codec || !bytes.Equal(a[i].Data, b[i].Data) {
				t.Fatalf("%s: input %d differs between two runs of seed 7", name, i)
			}
			differs = differs || a[i].Codec != c[i].Codec || !bytes.Equal(a[i].Data, c[i].Data)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
	ins, _ := httpInputs(7)
	codecs := map[string]int{}
	for _, in := range ins {
		codecs[in.Codec]++
	}
	if len(ins) != 3*distinctScenes || codecs["ppm"] != distinctScenes || codecs["png"] != distinctScenes || codecs["jpeg"] != distinctScenes {
		t.Errorf("http inputs: %d inputs, codecs %v", len(ins), codecs)
	}
}

func boxes(n int) []detect.Detection {
	out := make([]detect.Detection, n)
	for i := range out {
		f := float64(i)
		out[i] = detect.Detection{Box: detect.NewBox(10*f, 5*f, 10*f+8, 5*f+4), Class: i % 3, Score: 0.9 - 0.01*f}
	}
	return out
}

// Each correctness check, handed a mismatch, must count failed
// operations, which clears "correct" and sets the exit code.
func TestInjectedMismatchFailsTheRun(t *testing.T) {
	spec := testSpec(t)
	good := boxes(6)
	shifted := boxes(6)
	shifted[3].Box.X2 += 1e-3
	reordered := boxes(6)
	reordered[0], reordered[1] = reordered[1], reordered[0]
	balanced := stream.Summary{FramesIn: 10, FramesServed: 4, DroppedStale: 5, DroppedDeadline: 1}
	lost := balanced
	lost.FramesServed--
	routerOK := map[string]uint64{"requests": 9, "success": 7, "passthrough": 1, "exhausted": 1}
	routerLost := map[string]uint64{"requests": 9, "success": 7}

	cases := []struct {
		name   string
		check  func(r *runResult)
		failed int
	}{
		{"parity holds", func(r *runResult) { checkParity(r, 0, good, boxes(6)) }, 0},
		{"parity ignores the order of near-ties", func(r *runResult) { checkParity(r, 0, good, reordered) }, 0},
		{"parity: a box moved by 1e-3", func(r *runResult) { checkParity(r, 0, good, shifted) }, 1},
		{"parity: a box missing", func(r *runResult) { checkParity(r, 0, good, boxes(5)) }, 1},
		{"stream balanced", func(r *runResult) { checkPaced(r, paced{pushed: 10, hub: balanced}, stream.Summary{}) }, 0},
		{"stream: hub lost a frame", func(r *runResult) { checkPaced(r, paced{pushed: 10, hub: lost}, stream.Summary{}) }, 1},
		{"stream: a session lost a frame", func(r *runResult) { checkPaced(r, paced{pushed: 10, hub: balanced, unconserved: 1}, stream.Summary{}) }, 1},
		{"stream: boxes changed between passes", func(r *runResult) { checkPaced(r, paced{pushed: 10, hub: balanced, mismatched: 2}, stream.Summary{}) }, 2},
		{"stream: generator fell behind", func(r *runResult) {
			checkPaced(r, paced{pushed: 10, hub: balanced, lateness: []float64{1, 2, msOf(streamInterval) + 1}}, stream.Summary{})
		}, 1},
		{"router balanced", func(r *runResult) { checkClosedLoop(r, closedLoop{attempted: 9}, routerOK) }, 0},
		{"router: counters do not balance", func(r *runResult) { checkClosedLoop(r, closedLoop{attempted: 9}, routerLost) }, 1},
		{"router: routed boxes differ from in-process", func(r *runResult) { checkClosedLoop(r, closedLoop{attempted: 9, mismatch: 3}, routerOK) }, 3},
	}
	for _, c := range cases {
		r := newRunResult(spec, wRoutedHTTP, 1, true, 1)
		r.Attempted = 10
		c.check(r)
		if err := r.finish(); err != nil {
			t.Fatal(err)
		}
		if r.Failed != c.failed || r.Correct != (c.failed == 0) || (r.exitCode() != 0) != (c.failed > 0) {
			t.Errorf("%s: failed=%d correct=%v exit=%d, want failed=%d", c.name, r.Failed, r.Correct, r.exitCode(), c.failed)
		}
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(r.lastLine()), &last); err != nil {
			t.Fatal(err)
		}
		if last.Correct != r.Correct || last.Failed != r.Failed || last.Attempted < 1 || len(last.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: last line %s", c.name, r.lastLine())
		}
	}
	if boxesEqual(good, reordered) || !boxesEqual(good, boxes(6)) {
		t.Error("boxesEqual must be exact and ordered")
	}
}

// An untraced run that leaves an end-to-end metric out is an error, and
// a name outside BENCHMARK.json is a bug.
func TestRunMustReportEveryEndToEndMetric(t *testing.T) {
	r := newRunResult(testSpec(t), wSparseFrame, 1, false, 1)
	r.emit("setup_s", 1, 1)
	if err := r.finish(); err == nil {
		t.Error("finish accepted an untraced run with missing end-to-end metrics")
	}
	defer func() {
		if recover() == nil {
			t.Error("emit accepted an undeclared metric name")
		}
	}()
	r.emit("no_such_metric", 1, 1)
}

func TestCompareVerdicts(t *testing.T) {
	lower := MetricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := MetricSpec{Name: "throughput_ips", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005} }
	noisy := func(m float64) []float64 { return []float64{m * 0.7, m, m * 1.3, m * 0.8, m * 1.2} }
	for _, c := range []struct {
		name string
		m    MetricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"5% slower is inside the bound", lower, steady(100), steady(105), verdictOK},
		{"20% slower", lower, steady(100), steady(120), verdictRegressed},
		{"20% faster", lower, steady(100), steady(80), verdictOK},
		{"throughput down 20%", higher, steady(100), steady(80), verdictRegressed},
		{"throughput up 20%", higher, steady(100), steady(120), verdictOK},
		{"spread wider than the bound", lower, noisy(100), steady(120), verdictUnresolved},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// -compare must report a rise in fail rate even when every metric holds.
func TestCompareFlagsFailRateRise(t *testing.T) {
	spec := testSpec(t)
	file := func(name string, failed int) string {
		var f resultsFile
		for _, w := range spec.Workloads {
			for seed := uint64(1); seed <= 3; seed++ {
				r := newRunResult(spec, w.Name, seed, false, 1)
				r.Attempted, r.Failed = 100, failed
				for _, m := range spec.EndToEnd {
					r.emit(m.Name, 10+0.01*float64(seed), 1)
				}
				f.Runs = append(f.Runs, r)
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSONFile(path, &f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, failing := file("a.json", 0), file("b.json", 2)
	var out bytes.Buffer
	if bad, err := compareFiles(&out, spec, clean, clean); err != nil || bad {
		t.Errorf("a file against itself: bad=%v err=%v\n%s", bad, err, out.String())
	}
	if bad, err := compareFiles(&out, spec, clean, failing); err != nil || !bad {
		t.Errorf("a rise in fail rate was not flagged: bad=%v err=%v", bad, err)
	}
}

// The routed workload end to end at a fraction of its run length, both
// ways: every declared metric must come out, and the run be correct.
func TestRoutedWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fleet over loopback for a few seconds")
	}
	spec := testSpec(t)
	for _, trace := range []bool{false, true} {
		r := newRunResult(spec, wRoutedHTTP, 3, trace, 0.5)
		if err := runWorkload(r, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		if err := r.finish(); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("trace=%v: failed %d of %d: %v", trace, r.Failed, r.Attempted, r.Notes)
		}
		for _, m := range spec.EndToEnd {
			if !trace && r.Metrics[m.Name].Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, r.Metrics[m.Name].Value)
			}
		}
		if trace && r.Metrics["fleet.route_self_ms"].Samples == 0 {
			t.Error("the traced pass recorded no fleet.route spans")
		}
	}
}
