package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/serve"
	"rtoss/internal/stream"
)

// stream.go is the open-loop workload: camera-like sessions push frames
// on a schedule whether or not the server keeps up, through stream.Hub
// into serve's deadline scheduler and batched sparse forwards.

const (
	streamSessions = 2
	streamFPS      = 8 // per session; 16 fps offered is about 2.5x capacity
	streamWarmup   = 4 // lockstep frames before anything is timed

	// streamBudget is every frame's deadline budget: the sessions shed a
	// frame that cannot make it, and the harness counts a served frame
	// on time when its result came within the budget of its due time.
	streamBudget = 500 * time.Millisecond
)

var streamInterval = time.Second / streamFPS

// streamStack is the serving stack under a stream run.
type streamStack struct {
	y   *yolo
	srv *serve.Server
	hub *stream.Hub
}

func newStreamStack() (*streamStack, error) {
	y, err := newYOLO(engine.ModeSparse)
	if err != nil {
		return nil, err
	}
	s := &streamStack{y: y, srv: serve.NewServer(y.prog, serve.Config{})}
	s.hub = stream.NewHub(s.srv, stream.Config{Pipe: y.pipe, ResH: yoloRes, ResW: yoloRes, Budget: streamBudget})
	return s, nil
}

func (s *streamStack) close() {
	s.hub.Close()
	s.srv.Close()
}

// boxRef holds the detections each frame of the loop first produced;
// every later result for the same frame, from any session, must match
// them bit for bit.
type boxRef struct {
	mu   sync.Mutex
	dets [][]detect.Detection
}

func (b *boxRef) matches(k int, dets []detect.Detection) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dets[k] == nil {
		b.dets[k] = append([]detect.Detection{}, dets...)
		return true
	}
	return boxesEqual(b.dets[k], dets)
}

// paced is the outcome of one open-loop pass.
type paced struct {
	pushed, served, onTime int
	shed, errs, mismatched int
	unconserved            int
	latency                []float64 // ms from the frame's due time, served frames
	lateness               []float64 // ms the generator pushed after the due time
	pushUS                 []float64
	queueWait              []float64 // ms of a served frame's latency not spent in a pipeline stage
	hub                    stream.Summary
}

// runPaced opens the sessions and has each push frames at streamFPS for
// dur, like a camera: frame k is due at start + k*interval whatever
// happened to frame k-1. Latency is counted from that due time, so a
// generator stall is charged to the frames it delayed.
func runPaced(st *streamStack, frames []input, ref *boxRef, dur time.Duration) (paced, error) {
	n := int(dur / streamInterval)
	var p paced
	var mu sync.Mutex // guards p; results arrive on pump and pusher goroutines
	var wg sync.WaitGroup
	errs := make([]error, streamSessions)
	start := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < streamSessions; i++ {
		due := make([]time.Time, n)
		for k := range due {
			due[k] = start.Add(time.Duration(k) * streamInterval)
		}
		sess, err := st.hub.Open(stream.SessionConfig{OnResult: func(res stream.Result) {
			now := time.Now()
			k := int(res.Seq - 1) // a fresh session numbers its frames from 1
			mu.Lock()
			defer mu.Unlock()
			switch {
			case res.Err == nil:
				p.served++
				lat := now.Sub(due[k])
				p.latency = append(p.latency, msOf(lat))
				if lat <= streamBudget {
					p.onTime++
				}
				p.queueWait = append(p.queueWait, msOf(res.Latency-res.Det.Timing.Total()))
				if !ref.matches(k%len(frames), res.Det.Detections) {
					p.mismatched++
				}
			case errors.Is(res.Err, serve.ErrSuperseded), errors.Is(res.Err, serve.ErrDeadline):
				p.shed++
			default:
				p.errs++
			}
		}})
		if err != nil {
			return p, err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				time.Sleep(time.Until(due[k]))
				t0 := time.Now()
				err := sess.Push(frames[k%len(frames)].Data)
				pushed := time.Since(t0)
				if err != nil {
					errs[i] = err
					break
				}
				mu.Lock()
				p.pushed++
				p.lateness = append(p.lateness, msOf(t0.Sub(due[k])))
				p.pushUS = append(p.pushUS, float64(pushed)/float64(time.Microsecond))
				mu.Unlock()
			}
			sess.Close() // resolves the frame in flight and the last one waiting
			if !streamConserved(sess.Summary()) {
				mu.Lock()
				p.unconserved++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	p.hub = st.hub.Stats()
	return p, errors.Join(errs...)
}

// lockstep pushes frames through one session with a single frame in
// flight, so every frame is served, and hands each result to each.
func lockstep(hub *stream.Hub, frames []input, each func(k int, start time.Time, d time.Duration, res stream.Result)) error {
	results := make(chan stream.Result, 1)
	sess, err := hub.Open(stream.SessionConfig{OnResult: func(res stream.Result) { results <- res }})
	if err != nil {
		return err
	}
	defer sess.Close()
	for k, f := range frames {
		t0 := time.Now()
		if err := sess.Push(f.Data); err != nil {
			return err
		}
		res := <-results
		if res.Err != nil {
			return fmt.Errorf("lockstep frame %d: %w", k, res.Err)
		}
		each(k, t0, time.Since(t0), res)
	}
	return nil
}

func runStream(r *runResult, outDir string) error {
	frames, err := streamInputs(r.Seed)
	if err != nil {
		return err
	}
	var st *streamStack
	setupS, teardown, err := repeatSetup(setupReps(r.Workload, r.Trace), func() (func(), error) {
		var err error
		st, err = newStreamStack()
		if err != nil {
			return nil, err
		}
		return st.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// Warm-up in lockstep; its results must equal the in-process
	// pipeline's for the same bytes, and seed the per-frame reference.
	ref := &boxRef{dets: make([][]detect.Detection, len(frames))}
	direct := &stages{prog: st.y.prog, pipe: st.y.pipe, res: yoloRes}
	err = lockstep(st.hub, frames[:streamWarmup], func(k int, _ time.Time, _ time.Duration, res stream.Result) {
		r.Attempted++
		sr, err := direct.run(frames[k].Data)
		if err != nil || !boxesEqual(sr.dets, res.Det.Detections) {
			r.fail(1, "warm-up frame %d: streamed boxes differ from the in-process pipeline's (err %v)", k, err)
		}
		ref.matches(k, res.Det.Detections)
	})
	if err != nil {
		return err
	}
	r.Counts["warmup_frames"] = streamWarmup
	before := st.hub.Stats()

	if r.Trace {
		return traceStream(r, st, frames, ref, direct, outDir)
	}
	var p paced
	u := measure(func() { p, err = runPaced(st, frames, ref, r.share(1)) })
	if err != nil {
		return err
	}
	checkPaced(r, p, before)
	r.Notes = append(r.Notes, fmt.Sprintf("deadline_hit_rate %.4f: %d of %d pushed frames were served within %v of their due time (%d served)",
		float64(p.onTime)/float64(max(p.pushed, 1)), p.onTime, p.pushed, streamBudget, p.served))
	r.emitEndToEnd(setupS, p.latency, p.served, u, st.y.prog.MemoryBytes())
	return nil
}

// checkPaced turns a paced pass's outcome into attempted and failed
// operations: pipeline errors, boxes that changed between passes over
// the same frame, broken conservation, and a generator that fell behind
// by more than a frame interval, which makes the pass invalid.
func checkPaced(r *runResult, p paced, before stream.Summary) {
	r.Attempted += p.pushed
	r.Counts["frames_pushed"] += p.pushed
	r.Counts["frames_served"] += p.served
	r.fail(p.errs, "frames failed in the pipeline")
	r.fail(p.mismatched, "served frames whose boxes differ from the first pass over the same frame")
	r.fail(p.unconserved, "sessions with frames_in != served + stale + deadline + errors")
	if !streamConserved(p.hub) {
		r.fail(1, "hub counters do not balance: %+v", p.hub)
	}
	if got := int(p.hub.FramesIn - before.FramesIn); got != p.pushed {
		r.fail(1, "hub counted %d frames in, the generator pushed %d", got, p.pushed)
	}
	if late := percentile(p.lateness, 0.99); late > msOf(streamInterval) {
		r.fail(1, "run invalid: the generator ran %.1f ms late at p99, more than one frame interval", late)
	}
}

// traceStream is the traced pass: a lockstep span ladder
// (stream.session > serve.detect > the four stages), a shortened paced
// pass for the counters, and the model-level report. Each ladder frame
// is also run through the stage functions alone, for the stage metrics.
func traceStream(r *runResult, st *streamStack, frames []input, ref *boxRef, stagesOnly *stages, outDir string) error {
	// One ladder frame runs the pipeline three times over.
	n := max(3, int(r.Seconds/4/0.9))
	var untraced []float64
	allocs := mallocsOf(func() {
		_ = lockstep(st.hub, frames[streamWarmup:streamWarmup+n], func(_ int, _ time.Time, d time.Duration, _ stream.Result) {
			untraced = append(untraced, msOf(d))
		})
	})
	if len(untraced) != n {
		return fmt.Errorf("untraced lockstep pass served %d of %d frames", len(untraced), n)
	}
	r.emit("stream.allocs_per_frame", float64(allocs)/float64(n), n)

	rec := newRecorder()
	var traced []float64
	var runs []stageRun
	var ladderErr error
	err := lockstep(st.hub, frames[streamWarmup:streamWarmup+n], func(k int, start time.Time, d time.Duration, res stream.Result) {
		r.Attempted++
		traced = append(traced, msOf(d))
		data := frames[streamWarmup+k].Data
		t0 := time.Now()
		direct, err := st.srv.DetectFrame(data, st.y.pipe, yoloRes, yoloRes, serve.FrameOptions{Block: true})
		dDetect := time.Since(t0)
		sr, err2 := stagesOnly.run(data)
		if err != nil || err2 != nil {
			ladderErr = errors.Join(ladderErr, err, err2)
			return
		}
		rec.addLadder(k, start, []rung{
			{"stream.session", d, res.Det.Timing.Total()},
			{"serve.detect", dDetect, direct.Timing.Total()},
		}, timingStages(res.Det.Timing))
		sr.dets = nil
		runs = append(runs, sr)
	})
	if err = errors.Join(err, ladderErr); err != nil {
		return err
	}
	r.Counts["ladder_frames"] = n
	r.emit("trace.overhead_pct", 100*(median(traced)-median(untraced))/median(untraced), n)
	self := selfTimes(rec.spans)
	r.emitTimes("stream.session_self_ms", self["stream.session"])
	r.emitTimes("serve.detect_self_ms", self["serve.detect"])
	forwardMS := stageReport(r, runs)

	// Counters from a paced pass of half the run length.
	hubBefore, srvBefore := st.hub.Stats(), st.srv.Stats()
	p, err := runPaced(st, frames, ref, r.share(0.5))
	if err != nil {
		return err
	}
	checkPaced(r, p, hubBefore)
	srvAfter := st.srv.Stats()
	r.emit("stream.frames_in", float64(p.hub.FramesIn-hubBefore.FramesIn), 0)
	r.emit("stream.served", float64(p.hub.FramesServed-hubBefore.FramesServed), 0)
	r.emit("stream.dropped_stale", float64(p.hub.DroppedStale-hubBefore.DroppedStale), 0)
	r.emit("stream.dropped_deadline", float64(p.hub.DroppedDeadline-hubBefore.DroppedDeadline), 0)
	r.emit("stream.errors", float64(p.hub.Errors-hubBefore.Errors), 0)
	r.emit("stream.deadline_hit_rate", float64(p.onTime)/float64(max(p.pushed, 1)), p.pushed)
	r.emitTimes("stream.push_us", p.pushUS)
	r.emit("gen.lateness_p99_ms", percentile(p.lateness, 0.99), len(p.lateness))
	r.emitTimes("serve.queue_wait_ms", p.queueWait)
	forwarded, batches := srvAfter.Completed-srvBefore.Completed, srvAfter.Batches-srvBefore.Batches
	r.emit("serve.avg_batch", float64(forwarded)/float64(max(batches, 1)), int(batches))
	r.emit("serve.superseded", float64(srvAfter.Superseded-srvBefore.Superseded), 0)
	r.emit("serve.deadline_shed", float64(srvAfter.DeadlineShed-srvBefore.DeadlineShed), 0)
	r.emit("serve.deadline_miss", float64(srvAfter.DeadlineMisses-srvBefore.DeadlineMisses), 0)
	r.emit("serve.useful_forward_ratio", float64(p.onTime)/float64(max(forwarded, 1)), int(forwarded))

	in := stagesOnly.canvas.Reshape(1, 3, yoloRes, yoloRes)
	layers, err := yoloReport(r, st.y, in, forwardMS)
	if err != nil {
		return err
	}
	if err := ingestReport(r, frames[0], yoloRes); err != nil {
		return err
	}
	return writeTrace(outDir, r, rec, layers)
}
