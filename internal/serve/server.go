package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/faultinject"
	"rtoss/internal/tensor"
)

// Config tunes a Server's micro-batching scheduler. Zero values select
// the defaults.
type Config struct {
	// MaxBatch is the most images one forward pass coalesces (default 8).
	MaxBatch int
	// MaxDelay is how long a worker holding a partial batch waits for
	// more requests before running it (default 2ms). Lower favours
	// latency, higher favours throughput.
	MaxDelay time.Duration
	// Workers is how many batch executors run concurrently (default 2).
	// Each executes full forward passes on the shared Program.
	Workers int
	// QueueCap bounds the pending-request queue (default 64). Detect
	// blocks when the queue is full; a non-blocking DetectFrame sheds
	// load instead.
	QueueCap int

	// Watchdog arms the stuck-batch watchdog: a batch still executing
	// after this allowance (or, when the batch carries deadline
	// traffic, after a small multiple of its deadline budget —
	// whichever is tighter) has its unanswered requests failed with
	// ErrStuckBatch so no caller ever hangs on a wedged executor.
	// Zero disables the watchdog and all of its bookkeeping.
	Watchdog time.Duration

	// FaultInjector arms this server's chaos injection points (ingest
	// corruption, executor panic/stall). Nil — the production
	// configuration — compiles every point down to a nil check.
	FaultInjector *faultinject.Injector

	// clock overrides the scheduler's time source (nil = time.Now).
	// Unexported: only in-package tests drive the deadline scheduler
	// under a virtual clock; production servers always run wall time.
	clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	return c
}

// Server turns one shared Program into a concurrent detection service:
// requests (Detect/DetectFrame) carry encoded image bytes into a bounded
// queue, workers coalesce them into batches of up to MaxBatch images
// (waiting at most MaxDelay for stragglers), decode and letterbox each
// image, run one batched forward per canvas size, and run the pooled
// decode+NMS postprocess before replying — so detection traffic
// amortises its whole pipeline on the executors instead of burning a
// handler goroutine per request. All methods are safe for concurrent
// use.
type Server struct {
	prog  *engine.Program
	cfg   Config
	queue chan *request
	wg    sync.WaitGroup

	// headArena recycles the per-image head copies HeadsBatchArena
	// splits off a batched forward: the executor returns a request's
	// heads right after postprocess, so the next batch reuses the
	// buffers instead of allocating fresh ones.
	headArena *tensor.Arena
	// scratchPool recycles ingestScratch (decoded image + letterbox
	// canvas tensors) across detect requests, making the executor's
	// decode+letterbox stage allocation-free in steady state.
	scratchPool sync.Pool

	// seq numbers admissions, so an injected executor panic can name
	// the request it hit.
	seq atomic.Uint64

	closeMu sync.RWMutex
	closed  bool

	// wd is the stuck-batch watchdog (nil unless Config.Watchdog > 0):
	// one slot per worker records the batch being executed, and the
	// watchdog loop fails the requests of any batch that overstays its
	// allowance. See watchdog.go.
	wd *watchdog

	stats serverStats
}

// ingestScratch is one detect request's pooled preprocess state: the
// decoded image tensor and the letterbox canvas the forward consumes.
// Both retain capacity across requests, so a steady stream of
// same-sized images decodes and letterboxes with zero allocations.
type ingestScratch struct {
	img    *tensor.Tensor
	canvas *tensor.Tensor
}

var (
	// ErrClosed is returned by Detect/DetectFrame after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrQueueFull is returned by a non-blocking DetectFrame when the
	// queue is saturated.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrBadImage wraps image-decode failures of Detect requests: the
	// request was accepted but its body is not a decodable image. The
	// HTTP front end maps it to 400.
	ErrBadImage = errors.New("serve: undecodable image")
	// ErrDeadline is returned for a request whose deadline had already
	// expired when the scheduler admitted it: the frame was shed
	// without a forward pass (its slack was negative, so the result
	// could not have been useful). The HTTP front end maps it to 504.
	ErrDeadline = errors.New("serve: deadline expired before execution")
	// ErrSuperseded is what a stream session (internal/stream) reports
	// for a frame a fresher push evicted from its mailbox: newest-frame-
	// wins dropped it before it reached the server. The server itself
	// never returns it.
	ErrSuperseded = errors.New("serve: frame superseded by a fresher frame")
	// ErrWorkerPanic is returned for the request a batch executor was
	// handling when it panicked — the one request a panic is allowed
	// to fail. The HTTP front end maps it to 500; the process itself
	// always survives (the worker recovers and keeps serving).
	ErrWorkerPanic = errors.New("serve: batch executor panicked on this request")
	// ErrCoBatched is returned for an innocent request that shared a
	// batch with a panicking one and could not be re-queued (queue
	// full or server closing). Co-batched neighbors are re-queued once
	// and retried transparently; this error is the explicit fallback —
	// never a hang. The HTTP front end maps it to 503.
	ErrCoBatched = errors.New("serve: request aborted by a co-batched panic")
	// ErrStuckBatch is returned by the watchdog for requests of a
	// batch that exceeded its execution allowance — the caller gets an
	// explicit 503 instead of waiting on a wedged executor.
	ErrStuckBatch = errors.New("serve: batch exceeded its execution allowance")
)

type request struct {
	// img/pipe/resH/resW describe the request: encoded image bytes, the
	// resolved postprocess config, and the letterbox canvas size.
	img        []byte
	pipe       detect.Config
	resH, resW int
	// meta, ingest, pp and sc are filled by the executor's preprocess
	// stage; sc (whose canvas is the network input) is returned to the
	// server's scratch pool after the response is sent.
	meta   tensor.LetterboxMeta
	ingest time.Duration
	pp     time.Duration
	sc     *ingestScratch

	// deadline is the caller's latency budget (zero = none): admission
	// sheds the request once it has passed. seq is the server-wide
	// admission number.
	deadline time.Time
	seq      uint64

	resp chan response
	enq  time.Time

	// done flips exactly once, when the request's response is sent:
	// the executor, the panic-recovery path and the watchdog all race
	// to answer through reply()'s CAS, so the buffered resp channel
	// can never see a second send.
	done atomic.Bool
	// requeued marks a request already re-queued once after a
	// co-batched panic: a second incident fails it explicitly instead
	// of cycling it forever.
	requeued bool
}

type response struct {
	det *detect.Result
	err error
}

// NewServer starts cfg.Workers batch executors over the shared Program
// and returns the running server. Callers own the Program; one Program
// may back several servers.
func NewServer(prog *engine.Program, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		prog:      prog,
		cfg:       cfg,
		queue:     make(chan *request, cfg.QueueCap),
		headArena: tensor.NewArena(),
	}
	s.scratchPool.New = func() any { return new(ingestScratch) }
	if cfg.Watchdog > 0 {
		s.wd = newWatchdog(s, cfg.Watchdog, cfg.Workers)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(s.wd.slot(i))
	}
	return s
}

// reply delivers a request's response exactly once: the first of the
// executor, the panic-recovery path and the watchdog to get here wins
// the CAS and sends; later callers see false and do nothing. The resp
// channel is buffered (size 1), so the winning send never blocks.
//
//rtoss:noalloc
func (s *Server) reply(req *request, r response) bool {
	if !req.done.CompareAndSwap(false, true) {
		return false
	}
	req.resp <- r
	return true
}

// Detect runs the full image -> boxes pipeline on the batch executors:
// img is an encoded image (PPM/PGM/PNG/JPEG), pipe the postprocess config
// (Spec required), resH x resW the letterbox canvas resolution.
// Preprocess, the co-batched forward, and the pooled decode+NMS all
// execute on the worker that picked the request up, so a
// detection-heavy load scales with Workers rather than with handler
// goroutines. The returned Result carries boxes in source-image pixels
// (descending score) and the per-stage timing (Forward is the whole
// co-batched forward pass).
func (s *Server) Detect(img []byte, pipe detect.Config, resH, resW int) (*detect.Result, error) {
	return s.DetectFrame(img, pipe, resH, resW, FrameOptions{Block: true})
}

// FrameOptions parameterises a detection submission (DetectFrame). The
// zero value has no deadline and sheds with ErrQueueFull instead of
// blocking when the queue is saturated.
type FrameOptions struct {
	// Deadline is the caller's absolute latency budget: admission sheds
	// the request with ErrDeadline if the deadline has already passed
	// when a worker gathers it. Zero means no deadline (never shed).
	Deadline time.Time
	// Block makes the submission wait for queue space like Detect;
	// false sheds with ErrQueueFull instead.
	Block bool
}

// DetectFrame is Detect with a deadline budget and a choice of blocking
// or load-shedding submission: the request rides the same FIFO
// micro-batching queue, and admission sheds it with ErrDeadline if the
// deadline passed before a worker gathered it. internal/stream's
// sessions and the HTTP /detect handler submit through it.
func (s *Server) DetectFrame(img []byte, pipe detect.Config, resH, resW int, opt FrameOptions) (*detect.Result, error) {
	if len(pipe.Spec.Levels) == 0 {
		return nil, fmt.Errorf("serve: Detect needs a head spec in pipe.Spec")
	}
	pipe = pipe.WithDefaults()
	if st := pipe.Spec.MaxStride(); resH <= 0 || resH%st != 0 || resW <= 0 || resW%st != 0 {
		return nil, fmt.Errorf("serve: detect resolution %dx%d must be positive multiples of the head stride %d", resH, resW, st)
	}
	r, err := s.submit(&request{
		img: img, pipe: pipe, resH: resH, resW: resW, deadline: opt.Deadline,
	}, opt.Block)
	if err != nil {
		return nil, err
	}
	return r.det, nil
}

func (s *Server) submit(req *request, wait bool) (response, error) {
	req.resp = make(chan response, 1)
	req.enq = time.Now()
	req.seq = s.seq.Add(1)
	// The read lock holds Close's channel close off until the send has
	// completed, so submit never sends on a closed channel.
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return response{}, ErrClosed
	}
	if wait {
		// Sending under the close read-lock is the point: Close takes the
		// write lock before closing s.queue, so holding the read lock
		// across the send makes send-on-closed-channel impossible, and
		// the queue is drained by the batch loop, never by a lock holder.
		//rtoss:allow lockdiscipline (send fenced by the close lock by design)
		s.queue <- req
	} else {
		select {
		case s.queue <- req:
		default:
			s.closeMu.RUnlock()
			atomic.AddUint64(&s.stats.rejected, 1)
			return response{}, ErrQueueFull
		}
	}
	atomic.AddUint64(&s.stats.requests, 1)
	s.closeMu.RUnlock()
	r := <-req.resp
	return r, r.err
}

// Close stops accepting requests, drains the queue, and waits for
// in-flight batches to finish. It is idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()
	s.wg.Wait()
	s.wd.stopLoop()
}

// workerScratch is one executor's reusable state: the gather timer and
// the batch/input slices, all retained across batches so the
// steady-state executor loop allocates nothing of its own.
type workerScratch struct {
	timer *time.Timer
	batch []*request
	ins   []*tensor.Tensor

	// pending is the panic-recovery ledger: a stable copy of the batch
	// taken before execute starts compacting its slice in place. When
	// a batch panics, recoverBatch walks pending — each request exactly
	// once — answering or re-queueing whatever is still unanswered.
	pending []*request
	// cur is the request the executor is touching in a per-request
	// stage (preprocess, postprocess): the one a panic there poisons.
	// Nil during batched stages (forward), where no single request can
	// be blamed.
	cur *request
}

// worker pulls a request, tops the batch up to MaxBatch (waiting at
// most MaxDelay), sheds the requests whose deadline already passed,
// runs one batched forward per shape group, and replies to every
// caller. sl is the worker's watchdog slot (nil when the watchdog is
// disabled).
//
// A panic inside execute is contained there (recoverBatch answers the
// batch); the deferred recover here is the last-resort backstop for
// panics outside that window — it respawns the worker so the executor
// pool never shrinks and the process never dies.
func (s *Server) worker(sl *wdSlot) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddUint64(&s.stats.panics, 1)
			go s.worker(sl)
			return
		}
		s.wg.Done()
	}()
	ws := &workerScratch{timer: time.NewTimer(time.Hour)}
	ws.timer.Stop()
	for first := range s.queue {
		if batch := s.admit(s.gather(ws, first)); len(batch) > 0 {
			s.execute(ws, sl, batch)
		}
	}
}

// admit is the deadline filter between gather and execute: every
// request of the gathered batch whose deadline has already passed is
// answered with ErrDeadline instead of costing a forward pass, and the
// rest are returned in arrival order, compacted in place into batch's
// backing array.
func (s *Server) admit(batch []*request) []*request {
	now := s.cfg.clock()
	admitted := batch[:0]
	for _, req := range batch {
		if expired(req, now) {
			atomic.AddUint64(&s.stats.deadlineShed, 1)
			s.reply(req, response{err: ErrDeadline})
			continue
		}
		admitted = append(admitted, req)
	}
	return admitted
}

// expired reports whether req's slack was already negative at `now`:
// its deadline passed before a worker could admit it.
//
//rtoss:noalloc
func expired(req *request, now time.Time) bool {
	return !req.deadline.IsZero() && now.After(req.deadline)
}

// gather collects up to MaxBatch-1 additional requests behind first
// into the worker's reused batch slice.
func (s *Server) gather(ws *workerScratch, first *request) []*request {
	batch := append(ws.batch[:0], first)
	ws.batch = batch
	if s.cfg.MaxBatch <= 1 {
		return batch
	}
	// Go 1.23+ timer semantics: Reset after Stop needs no drain, and a
	// stale expiry can no longer be sitting buffered in the channel.
	ws.timer.Reset(s.cfg.MaxDelay)
	defer ws.timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case req, ok := <-s.queue:
			if !ok {
				return batch // closing: run what we have
			}
			batch = append(batch, req)
			ws.batch = batch
		case <-ws.timer.C:
			return batch
		}
	}
	return batch
}

// preprocess decodes and letterboxes a request's image bytes on
// the executor, entirely inside pooled scratch: the decoded image and
// the letterbox canvas both come from (and return to) the server's
// scratch pool, so a steady stream of same-sized images runs this stage
// with zero allocations. It reports whether the request survives; a
// decode failure is answered immediately (wrapped in ErrBadImage) so it
// never poisons the batch it was coalesced with.
func (s *Server) preprocess(req *request) bool {
	if s.cfg.FaultInjector.Should(faultinject.PointIngestCorrupt) {
		// Truncate the encoded bytes in place of the decode seeing
		// them: the request fails exactly like a client that sent a
		// cut-off upload — answered 400 alone, batch unharmed.
		req.img = req.img[:len(req.img)/2]
	}
	sc := s.scratchPool.Get().(*ingestScratch)
	t0 := time.Now()
	img, err := tensor.DecodeImageInto(sc.img, req.img)
	if err != nil {
		s.scratchPool.Put(sc)
		atomic.AddUint64(&s.stats.errors, 1)
		s.reply(req, response{err: fmt.Errorf("%w: %v", ErrBadImage, err)})
		return false
	}
	sc.img = img
	req.ingest = time.Since(t0)
	t1 := time.Now()
	canvas, meta := tensor.LetterboxImageInto(sc.canvas, img, req.resH, req.resW, tensor.LetterboxFill)
	sc.canvas = canvas
	req.sc = sc
	req.meta = meta
	req.pp = time.Since(t1)
	s.stats.recordIngest(req.ingest)
	s.stats.recordPreprocess(req.pp)
	return true
}

// release returns a request's pooled preprocess scratch after
// its response has been sent. The response never aliases the scratch
// (detections are freshly appended, heads were already recycled), so
// the next request may overwrite it immediately.
func (s *Server) release(req *request) {
	if req.sc != nil {
		s.scratchPool.Put(req.sc)
		req.sc = nil
	}
}

func (s *Server) execute(ws *workerScratch, sl *wdSlot, batch []*request) {
	// Copy the batch before the in-place compaction below: pending is
	// the one stable, duplicate-free view of every request this call
	// owes an answer to — what recoverBatch walks after a panic and
	// what the watchdog slot records.
	ws.pending = append(ws.pending[:0], batch...)
	if sl != nil {
		sl.begin(s, ws.pending)
		defer sl.end()
	}
	defer s.recoverBatch(ws)
	// Requests arrive as encoded bytes: preprocess them here so the
	// forward below can stack their canvases. Reusing batch's backing
	// array keeps the executor allocation-lean.
	ready := batch[:0]
	for _, req := range batch {
		ws.cur = req
		ok := s.preprocess(req)
		ws.cur = nil
		if ok {
			ready = append(ready, req)
		}
	}
	if len(ready) == 0 {
		return
	}
	// Clients may legitimately ask for different canvas sizes (Programs
	// accept any resolution the model supports), and canvases can only
	// be stacked with identical shapes — so partition the batch by
	// canvas size and forward each group separately. The common case
	// (every request at the model's nominal resolution) is detected up
	// front and runs group-partition-free.
	if uniformShape(ready) {
		s.executeGroup(ws, ready)
		return
	}
	for _, group := range groupByShape(ready) {
		s.executeGroup(ws, group)
	}
}

// recoverBatch is execute's panic-isolation contract: if anything in
// the batch window panics (preprocess, forward, postprocess — injected
// or real), the worker recovers here instead of unwinding the process.
// The request the panic poisoned (the one a per-request stage was
// touching, or any request on its second incident) is answered with
// ErrWorkerPanic; every other unanswered request is innocent and is
// re-queued for a transparent retry, or failed explicitly with
// ErrCoBatched when the queue has no room — success or 503, never a
// hang. The panics stat records the incident; the worker loop then
// continues with the next batch as if nothing happened.
func (s *Server) recoverBatch(ws *workerScratch) {
	r := recover()
	if r == nil {
		return
	}
	atomic.AddUint64(&s.stats.panics, 1)
	poisoned := ws.cur
	ws.cur = nil
	for _, req := range ws.pending {
		if req.done.Load() {
			continue
		}
		if req == poisoned || req.requeued {
			if s.reply(req, response{err: fmt.Errorf("%w: %v", ErrWorkerPanic, r)}) {
				atomic.AddUint64(&s.stats.errors, 1)
			}
			s.release(req)
			continue
		}
		s.requeueOrFail(req)
	}
}

// requeueOrFail gives an innocent co-batched request a second chance:
// its preprocess state is scrapped (a re-executed request decodes
// afresh from its original bytes) and it re-enters the queue
// without blocking. When the queue is full or the server is closing,
// the request is answered ErrCoBatched instead — explicitly, so the
// caller never hangs on a request the executor abandoned.
func (s *Server) requeueOrFail(req *request) {
	s.release(req)
	req.requeued = true
	s.closeMu.RLock()
	if !s.closed {
		select {
		case s.queue <- req:
			atomic.AddUint64(&s.stats.requeues, 1)
			s.closeMu.RUnlock()
			return
		default:
		}
	}
	s.closeMu.RUnlock()
	if s.reply(req, response{err: ErrCoBatched}) {
		atomic.AddUint64(&s.stats.errors, 1)
	}
}

// uniformShape reports whether every request's canvas stacks with the
// first one's — the hot path that skips groupByShape's allocations.
// Every canvas is [3, resH, resW], so equal sizes are equal shapes.
//
//rtoss:noalloc
func uniformShape(batch []*request) bool {
	for _, req := range batch[1:] {
		if req.resH != batch[0].resH || req.resW != batch[0].resW {
			return false
		}
	}
	return true
}

// executeGroup runs one stackable group: a single batched forward, then
// per-request postprocess and reply. The input slice is the worker's
// reused scratch.
func (s *Server) executeGroup(ws *workerScratch, group []*request) {
	ins := ws.ins[:0]
	for _, req := range group {
		// The batch stacker accepts [C, H, W] directly; skipping the
		// [1, C, H, W] reshape avoids allocating a view header per request.
		ins = append(ins, req.sc.canvas)
	}
	ws.ins = ins
	// An injected stall holds the whole batch mid-execution — the
	// scenario the stuck-batch watchdog exists for. The sleep happens
	// here, lock-free, never inside the injector.
	if d := s.cfg.FaultInjector.Latency(faultinject.PointExecStall); d > 0 {
		time.Sleep(d)
	}
	fstart := time.Now()
	// The server's arena feeds the per-image head copies; the loop
	// below returns each request's heads as soon as postprocess is done
	// with them.
	heads, err := s.prog.HeadsBatchArena(ins, s.headArena)
	fwd := time.Since(fstart)
	s.stats.recordBatch(len(group))
	for i, req := range group {
		ws.cur = req
		if s.cfg.FaultInjector.Should(faultinject.PointExecPanic) {
			panic(fmt.Sprintf("faultinject: %s while serving request %d", faultinject.PointExecPanic, req.seq))
		}
		r := response{err: err}
		if err == nil {
			// The postprocess scratch is pooled inside detect, so each
			// executor reuses a warm per-worker buffer set.
			dets, pst, derr := detect.PostprocessStats(nil, heads[i], req.meta, req.pipe)
			// Postprocess copied everything it keeps out of the head
			// tensors, so they go back to the arena either way — the
			// next batch reuses the buffers.
			for _, h := range heads[i] {
				s.headArena.Put(h)
			}
			r.err = derr
			if derr == nil {
				s.stats.recordDetect(pst)
				r.det = &detect.Result{
					Detections: dets,
					SrcW:       req.meta.SrcW,
					SrcH:       req.meta.SrcH,
					Timing: detect.Timing{
						Ingest:     req.ingest,
						Preprocess: req.pp,
						Forward:    fwd,
						Decode:     pst.Decode + pst.NMS,
					},
				}
			}
		}
		if r.err != nil {
			atomic.AddUint64(&s.stats.errors, 1)
		}
		s.stats.recordLatency(time.Since(req.enq))
		if !req.deadline.IsZero() && r.err == nil {
			if s.cfg.clock().After(req.deadline) {
				atomic.AddUint64(&s.stats.deadlineMisses, 1)
			} else {
				atomic.AddUint64(&s.stats.deadlineHits, 1)
			}
		}
		// The watchdog may have answered this request already (a
		// stall that outlived the batch allowance); the CAS inside
		// reply makes that race safe, and the executor still owns the
		// scratch release either way.
		s.reply(req, r)
		s.release(req)
		ws.cur = nil
	}
}

// groupByShape splits a batch into stackable groups of identical canvas
// size, preserving arrival order within each group. The common case
// (every client asks for the model's nominal resolution) stays one group.
func groupByShape(batch []*request) [][]*request {
	groups := make([][]*request, 0, 1)
outer:
	for _, req := range batch {
		for i, g := range groups {
			if g[0].resH == req.resH && g[0].resW == req.resW {
				groups[i] = append(g, req)
				continue outer
			}
		}
		groups = append(groups, []*request{req})
	}
	return groups
}

// Program returns the immutable Program the server executes — the
// snapshot endpoint's donor and a cheap way for shard plumbing to reach
// model metadata.
func (s *Server) Program() *engine.Program { return s.prog }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	st.QueueDepth = len(s.queue)
	return st
}

// serverStats is the atomically-updated internals behind Stats.
type serverStats struct {
	requests, rejected, errors uint64
	batches, batchedImages     uint64
	maxBatch                   int64
	latencyNS, maxLatencyNS    int64

	// Detection pipeline counters (Detect/DetectFrame requests).
	// preprocesses counts separately from detects: a request that
	// preprocessed but failed its forward/postprocess must not skew
	// the other's average.
	detects, preprocesses uint64
	ingests               uint64
	candidates, boxes     uint64
	ingestNS              int64
	preprocessNS          int64
	decodeNS, nmsNS       int64

	// Deadline counters (DetectFrame requests). All three are plain
	// atomics so /stats snapshots cannot tear under -race: deadlineShed
	// counts frames dropped at admission because their deadline had
	// passed, and hits/misses split the frames that were served by
	// whether they finished inside their budget.
	deadlineShed   uint64
	deadlineHits   uint64
	deadlineMisses uint64

	// Robustness counters: panics recovered by batch executors,
	// requests re-queued after a co-batched panic, and batches the
	// stuck-batch watchdog gave up on.
	panics       uint64
	requeues     uint64
	stuckBatches uint64
}

// The record* helpers run on the batch executor for every request, so
// they are part of the serving hot path's zero-allocation budget.
//
//rtoss:noalloc
func (st *serverStats) recordBatch(size int) {
	atomic.AddUint64(&st.batches, 1)
	atomic.AddUint64(&st.batchedImages, uint64(size))
	atomicMax(&st.maxBatch, int64(size))
}

//rtoss:noalloc
func (st *serverStats) recordLatency(d time.Duration) {
	atomic.AddInt64(&st.latencyNS, int64(d))
	atomicMax(&st.maxLatencyNS, int64(d))
}

//rtoss:noalloc
func (st *serverStats) recordIngest(d time.Duration) {
	atomic.AddUint64(&st.ingests, 1)
	atomic.AddInt64(&st.ingestNS, int64(d))
}

//rtoss:noalloc
func (st *serverStats) recordPreprocess(d time.Duration) {
	atomic.AddUint64(&st.preprocesses, 1)
	atomic.AddInt64(&st.preprocessNS, int64(d))
}

//rtoss:noalloc
func (st *serverStats) recordDetect(pst detect.PostStats) {
	atomic.AddUint64(&st.detects, 1)
	atomic.AddUint64(&st.candidates, uint64(pst.Candidates))
	atomic.AddUint64(&st.boxes, uint64(pst.Kept))
	atomic.AddInt64(&st.decodeNS, int64(pst.Decode))
	atomic.AddInt64(&st.nmsNS, int64(pst.NMS))
}

//rtoss:noalloc
func atomicMax(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// Stats is one snapshot of a server's accounting: how much traffic it
// has seen, how well micro-batching is coalescing it, what the callers'
// end-to-end latency (queue wait + batch execution) looks like, and —
// for the batched detection path — the per-stage postprocess counters.
type Stats struct {
	Requests               uint64 // accepted requests
	Rejected               uint64 // non-blocking DetectFrame load-shed rejections
	Errors                 uint64 // requests that returned an error
	Completed              uint64 // images that went through a forward pass
	Batches                uint64 // batched forward passes executed
	AvgBatch               float64
	MaxBatch               int
	AvgLatency, MaxLatency time.Duration
	QueueDepth             int

	// Detection-path counters: Detects counts completed Detect
	// requests; Candidates/Boxes the decoded candidates entering NMS
	// and the boxes that survived it; the Avg* durations the per-image
	// ingest (image-bytes decode), preprocess (letterbox), head decode
	// (+ TopK) and NMS (+ un-letterbox) stages on the batch executors.
	Detects       uint64
	Candidates    uint64
	Boxes         uint64
	AvgIngest     time.Duration
	AvgPreprocess time.Duration
	AvgDecode     time.Duration
	AvgNMS        time.Duration

	// Deadline counters (DetectFrame requests): how many frames were
	// shed unserved because their deadline had already expired
	// (DeadlineShed), and how the served ones split into on-budget
	// (DeadlineHits) vs late (DeadlineMisses).
	DeadlineShed   uint64
	DeadlineHits   uint64
	DeadlineMisses uint64

	// Superseded is always 0: the server sheds no frame for freshness.
	// Newest-frame-wins happens in the stream session's mailbox, which
	// counts its evictions as dropped_stale.
	//
	// Deprecated: kept only so existing readers still compile.
	Superseded uint64

	// Robustness counters: Panics counts executor panics survived
	// (each answers only the poisoned request with an error), Requeues
	// the innocent co-batched requests transparently retried, and
	// StuckBatches the batches the watchdog failed for overstaying
	// their execution allowance.
	Panics       uint64
	Requeues     uint64
	StuckBatches uint64
}

func (st *serverStats) snapshot() Stats {
	out := Stats{
		Requests:   atomic.LoadUint64(&st.requests),
		Rejected:   atomic.LoadUint64(&st.rejected),
		Errors:     atomic.LoadUint64(&st.errors),
		Completed:  atomic.LoadUint64(&st.batchedImages),
		Batches:    atomic.LoadUint64(&st.batches),
		MaxBatch:   int(atomic.LoadInt64(&st.maxBatch)),
		MaxLatency: time.Duration(atomic.LoadInt64(&st.maxLatencyNS)),
		Detects:    atomic.LoadUint64(&st.detects),
		Candidates: atomic.LoadUint64(&st.candidates),
		Boxes:      atomic.LoadUint64(&st.boxes),

		DeadlineShed:   atomic.LoadUint64(&st.deadlineShed),
		DeadlineHits:   atomic.LoadUint64(&st.deadlineHits),
		DeadlineMisses: atomic.LoadUint64(&st.deadlineMisses),

		Panics:       atomic.LoadUint64(&st.panics),
		Requeues:     atomic.LoadUint64(&st.requeues),
		StuckBatches: atomic.LoadUint64(&st.stuckBatches),
	}
	if out.Batches > 0 {
		out.AvgBatch = float64(out.Completed) / float64(out.Batches)
	}
	if out.Completed > 0 {
		out.AvgLatency = time.Duration(atomic.LoadInt64(&st.latencyNS) / int64(out.Completed))
	}
	if in := atomic.LoadUint64(&st.ingests); in > 0 {
		out.AvgIngest = time.Duration(atomic.LoadInt64(&st.ingestNS) / int64(in))
	}
	if pp := atomic.LoadUint64(&st.preprocesses); pp > 0 {
		out.AvgPreprocess = time.Duration(atomic.LoadInt64(&st.preprocessNS) / int64(pp))
	}
	if out.Detects > 0 {
		n := int64(out.Detects)
		out.AvgDecode = time.Duration(atomic.LoadInt64(&st.decodeNS) / n)
		out.AvgNMS = time.Duration(atomic.LoadInt64(&st.nmsNS) / n)
	}
	return out
}
