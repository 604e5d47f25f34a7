package eval

import (
	"fmt"
	"net"
	"net/http"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/kitti"
	"rtoss/internal/serve"
	"rtoss/internal/tensor"
)

// backends.go implements the interchangeable evaluation paths. The
// in-process backend runs forwardPipeline (letterbox -> heads ->
// Postprocess) directly; the server and http backends push the
// canonical image bytes through Server.Detect — the batched
// postprocess path — which decodes the same bytes and runs the same
// Postprocess, so a mAP difference between any two backends isolates
// the transport layer, not the math.

// newBackend constructs the configured backend.
func newBackend(cfg Config) (backend, error) {
	switch cfg.Backend {
	case BackendOracle:
		return &oracleBackend{cfg: cfg.Detect, res: cfg.Res}, nil
	case BackendInProcess:
		prog, err := buildProgram(cfg)
		if err != nil {
			return nil, err
		}
		return &inprocessBackend{prog: prog, cfg: cfg.Detect, res: cfg.Res}, nil
	case BackendServer:
		prog, err := buildProgram(cfg)
		if err != nil {
			return nil, err
		}
		return &serverBackend{srv: serve.NewServer(prog, serve.Config{}), cfg: cfg.Detect, res: cfg.Res}, nil
	case BackendHTTP:
		return newHTTPBackend(cfg)
	}
	return nil, fmt.Errorf("eval: unknown backend %q (want %v)", cfg.Backend, Backends())
}

// forwardPipeline is the shared post-transport path: letterbox the
// decoded image onto the model canvas, fetch the head tensors, run the
// standard postprocess.
func forwardPipeline(img *tensor.Tensor, res int, heads func(*tensor.Tensor) ([]*tensor.Tensor, error), cfg detect.Config) ([]detect.Detection, error) {
	canvas, meta := tensor.LetterboxImage(img, res, res, tensor.LetterboxFill)
	hs, err := heads(canvas.Reshape(1, canvas.Dim(0), canvas.Dim(1), canvas.Dim(2)))
	if err != nil {
		return nil, err
	}
	return detect.Postprocess(hs, meta, cfg)
}

// inprocessBackend calls the compiled Program directly — the
// rtoss.Detector path without the public wrapper.
type inprocessBackend struct {
	prog *engine.Program
	cfg  detect.Config
	res  int
}

func (b *inprocessBackend) detect(it item) ([]detect.Detection, error) {
	return forwardPipeline(it.img, b.res, b.prog.Heads, b.cfg)
}

func (b *inprocessBackend) close() {}

// serverBackend routes whole detection requests through a
// micro-batching serve.Server (direct method calls, no sockets): the
// canonical PPM bytes enter Server.Detect, so preprocess, the
// co-batched forward and the pooled decode+NMS all run on the batch
// executors — the same path POST /detect takes. Parity with the
// in-process backend holds bitwise because the executor decodes the
// identical bytes and runs the identical Postprocess.
type serverBackend struct {
	srv *serve.Server
	cfg detect.Config
	res int
}

func (b *serverBackend) detect(it item) ([]detect.Detection, error) {
	res, err := b.srv.Detect(it.ppm, b.cfg, b.res, b.res)
	if err != nil {
		return nil, err
	}
	return res.Detections, nil
}

func (b *serverBackend) close() { b.srv.Close() }

// httpBackend POSTs the canonical PPM bytes to a /detect endpoint.
// Without an external URL it hosts the full serving stack (Server +
// NewHandler) on a loopback listener for the duration of the run.
type httpBackend struct {
	client *serve.Client
	srv    *serve.Server
	hs     *http.Server
}

func newHTTPBackend(cfg Config) (backend, error) {
	b := &httpBackend{
		client: &serve.Client{
			Score: cfg.Detect.ScoreThreshold,
			IoU:   cfg.Detect.IoUThreshold,
		},
	}
	if cfg.URL != "" {
		b.client.BaseURL = cfg.URL
		return b, nil
	}
	prog, err := buildProgram(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("eval: self-hosting detect server: %w", err)
	}
	b.srv = serve.NewServer(prog, serve.Config{})
	b.hs = &http.Server{Handler: serve.NewHandler(b.srv, serve.HandlerConfig{
		InputH: cfg.Res, InputW: cfg.Res,
		Detect: cfg.Detect,
		Labels: kitti.ClassNames[:],
	})}
	go b.hs.Serve(ln)
	b.client.BaseURL = "http://" + ln.Addr().String()
	return b, nil
}

func (b *httpBackend) detect(it item) ([]detect.Detection, error) {
	resp, err := b.client.DetectBytes(it.ppm)
	if err != nil {
		return nil, err
	}
	return resp.Boxes(), nil
}

func (b *httpBackend) close() {
	if b.hs != nil {
		b.hs.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
}
