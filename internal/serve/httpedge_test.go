package serve

// httpedge_test.go covers the HTTP edge hardening: the client's
// keep-alive connection reuse across error responses (failover retries
// must not pay a fresh TCP handshake per 5xx) and readBody's refusal to
// trust a lying Content-Length.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtoss/internal/detect"
)

// TestClientReusesConnectionsAcrossErrorResponses drives repeated
// requests against a server answering 503 with a body larger than the
// 1KB error excerpt the client surfaces. Before the drain fix the
// undrained remainder forced the transport to tear the connection down,
// so every retry dialled fresh; with the fix every request after the
// first rides the same connection.
func TestClientReusesConnectionsAcrossErrorResponses(t *testing.T) {
	big := strings.Repeat("shard overloaded; ", 300) // ~5.4KB > the 1KB excerpt
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, big, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	var dials atomic.Int64
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: tr}}

	const requests = 8
	for i := 0; i < requests; i++ {
		if _, err := c.DetectBytes([]byte("P6\n1 1\n255\nxyz")); err == nil {
			t.Fatal("expected an error from the 503 response")
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialled %d times for %d sequential error responses, want 1 (connection not reused)", n, requests)
	}
}

// TestClientReusesConnectionsAcrossSuccesses pins the success path the
// same way: the JSON decoder stops at the end of the value, and the
// handler's trailing newline must be drained for the connection to
// return to the idle pool.
func TestClientReusesConnectionsAcrossSuccesses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"detections":[],"count":0,"image":{"width":1,"height":1},"timing_ms":{"ingest":0,"preprocess":0,"forward":0,"decode":0,"total":0}}`+"\n")
	}))
	defer ts.Close()

	var dials atomic.Int64
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: tr}}

	const requests = 8
	for i := 0; i < requests; i++ {
		if _, err := c.DetectBytes([]byte("img")); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialled %d times for %d sequential successes, want 1", n, requests)
	}
}

// TestClientTimeoutConfigurable pins the per-call-site timeout path: a
// client with a short Timeout must abandon a stalled server at roughly
// that budget instead of the 60 s default, and a caller context with an
// earlier deadline must win over a longer Timeout.
func TestClientTimeoutConfigurable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Stall until the client gives up. The body must be drained
		// first: the server only watches for client disconnect (and
		// cancels the request context) once the handler has consumed
		// the body, and ts.Close waits for this handler to return.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Timeout: 50 * time.Millisecond}
	start := time.Now()
	if _, err := c.DetectBytes([]byte("img")); err == nil {
		t.Fatal("expected a timeout error")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", el)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c2 := &Client{BaseURL: ts.URL, Timeout: time.Hour}
	start = time.Now()
	if _, err := c2.DetectBytesContext(ctx, []byte("img")); err == nil {
		t.Fatal("expected a context-deadline error")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("context deadline took %v, want ~50ms", el)
	}
}

// lyingBody serves raw bytes regardless of the request's declared
// Content-Length — the stand-in for plumbing that does not enforce the
// header the way Go's own server does.
type lyingBody struct{ io.Reader }

func (lyingBody) Close() error { return nil }

// TestReadBodyContentLengthHardening is the table-driven gate over
// readBody: a lying, oversized or negative Content-Length must never
// over-allocate, silently truncate, or silently pad.
func TestReadBodyContentLengthHardening(t *testing.T) {
	const limit = 1 << 10
	payload := bytes.Repeat([]byte{0xAB}, 64)
	cases := []struct {
		name     string
		decl     int64  // Content-Length the request declares
		body     []byte // bytes actually readable
		wantErr  bool
		wantHTTP int // expected bodyErrCode when wantErr
		wantLen  int // expected byte count when !wantErr
	}{
		{name: "honest", decl: 64, body: payload, wantLen: 64},
		{name: "empty honest", decl: 0, body: nil, wantLen: 0},
		{name: "unknown length (chunked)", decl: -1, body: payload, wantLen: 64},
		{name: "declares more than sent", decl: 128, body: payload, wantErr: true, wantHTTP: http.StatusBadRequest},
		{name: "declares fewer than sent", decl: 32, body: payload, wantErr: true, wantHTTP: http.StatusBadRequest},
		{name: "declares past the limit", decl: limit + 1, body: nil, wantErr: true, wantHTTP: http.StatusRequestEntityTooLarge},
		{name: "declares absurdly past the limit", decl: 1 << 40, body: nil, wantErr: true, wantHTTP: http.StatusRequestEntityTooLarge},
		{name: "chunked past the limit", decl: -1, body: bytes.Repeat([]byte{1}, limit+1), wantErr: true, wantHTTP: http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := &http.Request{
				Body:          lyingBody{bytes.NewReader(tc.body)},
				ContentLength: tc.decl,
			}
			bp, err := readBody(req, limit)
			if tc.wantErr {
				if err == nil {
					bufPool.Put(bp)
					t.Fatal("want error, got none")
				}
				if code := bodyErrCode(err); code != tc.wantHTTP {
					t.Fatalf("bodyErrCode(%v) = %d, want %d", err, code, tc.wantHTTP)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(*bp) != tc.wantLen {
				t.Fatalf("read %d bytes, want %d", len(*bp), tc.wantLen)
			}
			bufPool.Put(bp)
		})
	}
}

// TestDetectRejectsOversizedBodyOverHTTP pins the end-to-end status: a
// /detect body declared past maxImageBody answers 413, not 400.
func TestDetectRejectsOversizedBodyOverHTTP(t *testing.T) {
	s := NewServer(tinyProgram(t), Config{})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{
		InputH: 32, InputW: 32, Detect: pipe,
	}))
	defer ts.Close()

	// http.Transport refuses to send a body shorter than its declared
	// Content-Length, so the lying declaration goes over a raw socket.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /detect HTTP/1.1\r\nHost: rtoss\r\nContent-Length: %d\r\n\r\n", maxImageBody+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized declaration answered %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
}
