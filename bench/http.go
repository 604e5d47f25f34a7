package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/fleet"
	"rtoss/internal/serve"
)

// http.go is the routed workload: two closed-loop HTTP clients post
// KITTI-sized images in three codecs to a fleet.Router in front of two
// fleet.Shards serving a tiny detector, over loopback. The forward pass
// is a few milliseconds, so codecs, letterbox, postprocess, serve's
// HTTP handler and queue, and fleet's routing do most of the work.

const (
	httpClients = 2
	httpShards  = 2
	httpWarmup  = 200 // requests before anything is timed
)

// fleetStack is a router, its shards and their listeners, plus an
// in-process server on the same program: the parity reference and the
// serve.detect rung of the span ladder.
type fleetStack struct {
	prog      *engine.Program
	pipe      detect.Config
	router    *fleet.Router
	shards    []*fleet.Shard
	servers   []*http.Server
	serving   sync.WaitGroup
	routerURL string
	shardURLs []string
	inproc    *serve.Server
}

func newFleetStack() (*fleetStack, error) {
	f := &fleetStack{pipe: detect.Config{Spec: fleet.TinySpec(), ScoreThreshold: 0.05}}
	var err error
	if f.prog, err = fleet.TinyProgram(); err != nil {
		return nil, err
	}
	for i := 0; i < httpShards; i++ {
		sh := fleet.NewShard(fleet.ShardConfig{
			Default: fleet.TinyKey(), Res: tinyRes,
			PipeFor: func(serve.Key, *engine.Program) (detect.Config, error) { return f.pipe, nil },
		})
		f.shards = append(f.shards, sh)
		if _, err := sh.Registry().Install(fleet.TinyKey(), f.prog); err != nil {
			f.close()
			return nil, err
		}
		url, err := f.listen(sh.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.shardURLs = append(f.shardURLs, url)
	}
	if f.router, err = fleet.NewRouter(fleet.RouterConfig{Backends: f.shardURLs, Default: fleet.TinyKey(), BackoffSeed: 1}); err != nil {
		f.close()
		return nil, err
	}
	if f.routerURL, err = f.listen(f.router.Handler()); err != nil {
		f.close()
		return nil, err
	}
	f.inproc = serve.NewServer(f.prog, serve.Config{})
	return f, nil
}

// listen serves h on a free loopback port until close.
func (f *fleetStack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleetStack) close() {
	for _, hs := range f.servers {
		hs.Close()
	}
	f.serving.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, sh := range f.shards {
		sh.Close()
	}
	if f.inproc != nil {
		f.inproc.Close()
	}
}

// shardCounters sums the serve counters of every shard from their
// public GET /stats documents.
func (f *fleetStack) shardCounters(hc *http.Client) (forwarded, batches float64, err error) {
	for _, u := range f.shardURLs {
		resp, err := hc.Get(u + "/stats")
		if err != nil {
			return 0, 0, err
		}
		var doc struct {
			Models map[string]struct {
				Completed float64 `json:"completed"`
				Batches   float64 `json:"batches"`
			} `json:"models"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		for _, m := range doc.Models {
			forwarded, batches = forwarded+m.Completed, batches+m.Batches
		}
	}
	return forwarded, batches, nil
}

// closedLoop is the outcome of a closed-loop pass.
type closedLoop struct {
	latency   []float64 // ms, successful requests
	queueWait []float64 // ms of a request's latency outside the pipeline stages it reported
	attempted int
	errs      int
	mismatch  int
	firstErr  error
}

// runClosedLoop has httpClients clients post inputs to the router
// back-to-back, each sending its next request when the last one
// returned, while more(i) holds for the i-th request overall. Every
// response is held against the in-process reference for its bytes.
func runClosedLoop(f *fleetStack, hc *http.Client, ins []input, ref [][]detect.Detection, more func(i int) bool) closedLoop {
	cl := &serve.Client{BaseURL: f.routerURL, HTTPClient: hc, Timeout: 10 * time.Second}
	parts := make([]closedLoop, httpClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *closedLoop) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				k := i % len(ins)
				t0 := time.Now()
				resp, err := cl.DetectBytes(ins[k].Data)
				d := time.Since(t0)
				p.attempted++
				switch {
				case err != nil:
					p.errs++
					if p.firstErr == nil {
						p.firstErr = err
					}
				case !boxesEqual(ref[k], resp.Boxes()):
					p.mismatch++
				default:
					p.latency = append(p.latency, msOf(d))
					p.queueWait = append(p.queueWait, msOf(d)-resp.TimingMS.Total)
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	var all closedLoop
	for _, p := range parts {
		all.latency = append(all.latency, p.latency...)
		all.queueWait = append(all.queueWait, p.queueWait...)
		all.attempted, all.errs, all.mismatch = all.attempted+p.attempted, all.errs+p.errs, all.mismatch+p.mismatch
		all.firstErr = errors.Join(all.firstErr, p.firstErr)
	}
	return all
}

// checkClosedLoop turns a pass's outcome into attempted and failed
// operations, and checks the router's conservation invariant on its
// settled counters.
func checkClosedLoop(r *runResult, p closedLoop, router map[string]uint64) {
	r.Attempted += p.attempted
	r.fail(p.errs, "requests failed, first: %v", p.firstErr)
	r.fail(p.mismatch, "routed responses differ from the in-process detections for the same bytes")
	if !routerConserved(router) {
		r.fail(1, "router counters do not balance: %v", router)
	}
}

func runHTTP(r *runResult, outDir string) error {
	ins, err := httpInputs(r.Seed)
	if err != nil {
		return err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: httpClients}}
	defer hc.CloseIdleConnections()
	// Set-up ends when the stack has answered its first request: a shard
	// builds its server on first use, so a fleet that merely listens is
	// not yet ready. That request is always a PPM, whose decoding costs
	// the same whatever the seed put first.
	first := ins[0]
	for _, in := range ins {
		if in.Codec == "ppm" {
			first = in
			break
		}
	}
	var f *fleetStack
	setupS, teardown, err := repeatSetup(setupReps(r.Workload, r.Trace), func() (func(), error) {
		var err error
		if f, err = newFleetStack(); err != nil {
			return nil, err
		}
		ready := &serve.Client{BaseURL: f.routerURL, HTTPClient: hc, Timeout: 10 * time.Second}
		if _, err := ready.DetectBytes(first.Data); err != nil {
			f.close()
			return nil, fmt.Errorf("first request through a fresh fleet: %w", err)
		}
		return f.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// The reference: what Server.Detect gives in process for each input.
	ref := make([][]detect.Detection, len(ins))
	for k, in := range ins {
		res, err := f.inproc.Detect(in.Data, f.pipe, tinyRes, tinyRes)
		if err != nil {
			return fmt.Errorf("reference detection of input %d (%s): %w", k, in.Codec, err)
		}
		ref[k] = res.Detections
	}
	warm := runClosedLoop(f, hc, ins, ref, func(i int) bool { return i < httpWarmup })
	checkClosedLoop(r, warm, f.router.Stats())
	r.Counts["warmup_requests"] = httpWarmup

	if r.Trace {
		return traceHTTP(r, f, hc, ins, ref, outDir)
	}
	var p closedLoop
	u := measure(func() {
		deadline := time.Now().Add(r.share(1))
		p = runClosedLoop(f, hc, ins, ref, func(int) bool { return time.Now().Before(deadline) })
	})
	checkClosedLoop(r, p, f.router.Stats())
	r.Counts["timed_requests"] = p.attempted
	r.emitEndToEnd(setupS, p.latency, len(p.latency), u, f.prog.MemoryBytes())
	return nil
}

// traceHTTP is the traced pass: a two-client closed loop of a quarter
// of the run length for the queueing counters, then a single-client
// span ladder (fleet.route > serve.http > serve.detect > the four
// stages) over the same inputs.
func traceHTTP(r *runResult, f *fleetStack, hc *http.Client, ins []input, ref [][]detect.Detection, outDir string) error {
	fwd0, bat0, err := f.shardCounters(hc)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(r.share(0.25))
	p := runClosedLoop(f, hc, ins, ref, func(int) bool { return time.Now().Before(deadline) })
	checkClosedLoop(r, p, f.router.Stats())
	fwd1, bat1, err := f.shardCounters(hc)
	if err != nil {
		return err
	}
	r.emitTimes("serve.queue_wait_ms", p.queueWait)
	r.emit("serve.avg_batch", (fwd1-fwd0)/max(bat1-bat0, 1), int(bat1-bat0))
	r.emit("serve.useful_forward_ratio", float64(len(p.latency))/max(fwd1-fwd0, 1), int(fwd1-fwd0))

	// One ladder request costs about four plain ones.
	n := max(48, int(r.Seconds/4*1000/(4*median(p.latency))))
	routed := &serve.Client{BaseURL: f.routerURL, HTTPClient: hc, Timeout: 10 * time.Second}
	sharded := &serve.Client{BaseURL: f.shardURLs[0], HTTPClient: hc, Timeout: 10 * time.Second}
	if _, err := sharded.DetectBytes(ins[0].Data); err != nil { // builds the shard's server if the router never chose it
		return err
	}
	var untraced, traced []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := routed.DetectBytes(ins[i%len(ins)].Data); err != nil {
			return err
		}
		untraced = append(untraced, msOf(time.Since(t0)))
	}
	rec := newRecorder()
	stagesOnly := &stages{prog: f.prog, pipe: f.pipe, res: tinyRes}
	var runs []stageRun
	for i := 0; i < n; i++ {
		data := ins[i%len(ins)].Data
		r.Attempted++
		start := time.Now()
		viaRouter, err := routed.DetectBytes(data)
		dRoute := time.Since(start)
		if err != nil {
			return err
		}
		t0 := time.Now()
		viaShard, err := sharded.DetectBytes(data)
		dShard := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		inproc, err := f.inproc.Detect(data, f.pipe, tinyRes, tinyRes)
		dDetect := time.Since(t0)
		if err != nil {
			return err
		}
		sr, err := stagesOnly.run(data)
		if err != nil {
			return err
		}
		if !boxesEqual(sr.dets, ref[i%len(ins)]) {
			r.fail(1, "input %d: the stage functions' boxes differ from Server.Detect's", i%len(ins))
		}
		tm := viaRouter.TimingMS
		rec.addLadder(i, start, []rung{
			{"fleet.route", dRoute, msDuration(tm.Total)},
			{"serve.http", dShard, msDuration(viaShard.TimingMS.Total)},
			{"serve.detect", dDetect, inproc.Timing.Total()},
		}, [4]time.Duration{msDuration(tm.Ingest), msDuration(tm.Preprocess), msDuration(tm.Forward), msDuration(tm.Decode)})
		traced = append(traced, msOf(dRoute))
		sr.dets = nil
		runs = append(runs, sr)
	}
	r.Counts["ladder_requests"] = n
	r.emit("trace.overhead_pct", 100*(median(traced)-median(untraced))/median(untraced), n)
	self := selfTimes(rec.spans)
	r.emitTimes("fleet.route_self_ms", self["fleet.route"])
	r.emitTimes("serve.http_self_ms", self["serve.http"])
	r.emitTimes("serve.detect_self_ms", self["serve.detect"])
	st := f.router.Stats()
	r.emit("fleet.retries", float64(st["retries"]), 0)
	r.emit("fleet.failovers", float64(st["failovers"]), 0)

	forwardMS := stageReport(r, runs)
	in := stagesOnly.canvas.Reshape(1, 3, tinyRes, tinyRes)
	if err := batchReport(r, f.prog, in, forwardMS, replayReps, 1); err != nil {
		return err
	}
	// The ingest functions run on one input of each codec's own bytes.
	if err := ingestReport(r, ins[0], tinyRes); err != nil {
		return err
	}
	return writeTrace(outDir, r, rec, nil)
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
