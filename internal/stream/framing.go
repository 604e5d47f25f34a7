// Package stream implements streaming video serving on top of the
// batch executors in internal/serve: a frame parser for MJPEG-style
// multipart and raw length-prefixed frame sequences, per-stream
// sessions with a newest-frame-wins mailbox, and a hub that fans the
// sessions into serve's FIFO queue, whose admission sheds frames whose
// deadline has passed. Under load a stream degrades by dropping stale
// frames — never by serving an ever-older backlog — and every
// drop/deadline outcome is counted atomically for /stats.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire formats accepted by POST /stream and the Framer:
//
//   - multipart/x-mixed-replace; boundary=B — the MJPEG convention:
//     each frame is one part (`--B`, headers, blank line, body), the
//     stream ends with the `--B--` terminator. Bodies may carry a
//     Content-Length header (validated, then read exactly); without
//     one the parser scans for the next `\r\n--B` delimiter.
//   - application/x-rtoss-frames — a raw sequence of frames, each an
//     8-byte little-endian length prefix followed by that many bytes;
//     a zero length marks a clean end of stream.
//
// Both parsers enforce hard limits (maxPartHeader, MaxFrameBytes) so a
// hostile stream cannot balloon memory, and both distinguish a clean
// terminator (io.EOF) from a connection that died mid-frame
// (ErrTruncated) — the session layer reports the two differently.

const (
	// MaxFrameBytes caps a single frame body; larger frames fail with
	// ErrFrameTooLarge before any body bytes are buffered.
	MaxFrameBytes = 16 << 20
	// maxPartHeader caps the header block (and any single header line)
	// of one multipart part.
	maxPartHeader = 4096
)

// RawContentType is the Content-Type of the length-prefixed frame
// sequence format.
const RawContentType = "application/x-rtoss-frames"

// Framing errors. Everything except io.EOF (clean terminator) is
// terminal for the stream.
var (
	ErrTruncated      = errors.New("stream: input truncated mid-frame")
	ErrFrameTooLarge  = fmt.Errorf("stream: frame exceeds %d bytes", MaxFrameBytes)
	ErrHeaderTooLarge = fmt.Errorf("stream: part header exceeds %d bytes", maxPartHeader)
	ErrEmptyFrame     = errors.New("stream: zero-length frame part")
	ErrBadFraming     = errors.New("stream: malformed frame framing")
)

// MultipartContentType returns the Content-Type header value for a
// multipart frame stream with the given boundary.
func MultipartContentType(boundary string) string {
	return "multipart/x-mixed-replace; boundary=" + boundary
}

// Framer incrementally parses a frame sequence from r. Next returns
// each frame body in order; the returned slice aliases an internal
// buffer and is only valid until the next call.
type Framer struct {
	r        io.Reader
	raw      bool
	boundary []byte // "--" + boundary
	started  bool   // multipart: first boundary line consumed
	done     bool

	buf []byte // unconsumed input window
	off int    // consume offset into buf

	lenbuf [8]byte
	frame  []byte // reused frame buffer for the raw format
}

// NewMultipartFramer parses a multipart/x-mixed-replace stream with
// the given boundary token.
func NewMultipartFramer(r io.Reader, boundary string) *Framer {
	return &Framer{r: r, boundary: append([]byte("--"), boundary...)}
}

// NewRawFramer parses a length-prefixed frame sequence
// (application/x-rtoss-frames).
func NewRawFramer(r io.Reader) *Framer {
	return &Framer{r: r, raw: true}
}

// Next returns the next frame body, io.EOF after a clean terminator,
// or a framing error. The slice is valid until the next call.
func (f *Framer) Next() ([]byte, error) {
	if f.done {
		return nil, io.EOF
	}
	var frame []byte
	var err error
	if f.raw {
		frame, err = f.nextRaw()
	} else {
		frame, err = f.nextPart()
	}
	if err != nil {
		f.done = true
	}
	return frame, err
}

func (f *Framer) nextRaw() ([]byte, error) {
	if err := f.readFull(f.lenbuf[:]); err != nil {
		if err == io.EOF {
			// EOF exactly at a frame boundary: the sender vanished
			// without the zero-length terminator.
			return nil, ErrTruncated
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint64(f.lenbuf[:])
	if n == 0 {
		return nil, io.EOF // clean terminator
	}
	if n > MaxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	if cap(f.frame) < int(n) {
		f.frame = make([]byte, n)
	}
	f.frame = f.frame[:n]
	if err := f.readFull(f.frame); err != nil {
		return nil, ErrTruncated
	}
	return f.frame, nil
}

// readFull fills p from the buffered window and then the reader.
// Returns io.EOF only when zero bytes were available, ErrTruncated on
// a partial read.
func (f *Framer) readFull(p []byte) error {
	n := copy(p, f.buf[f.off:])
	f.off += n
	if n == len(p) {
		return nil
	}
	m, err := io.ReadFull(f.r, p[n:])
	if err == nil {
		return nil
	}
	if n+m == 0 && err == io.EOF {
		return io.EOF
	}
	return ErrTruncated
}

// fill reads more input into the window, compacting first. Reports
// io.EOF when the source is exhausted.
func (f *Framer) fill() error {
	if f.off > 0 {
		f.buf = append(f.buf[:0], f.buf[f.off:]...)
		f.off = 0
	}
	if cap(f.buf)-len(f.buf) < 512 {
		grown := make([]byte, len(f.buf), cap(f.buf)*2+4096)
		copy(grown, f.buf)
		f.buf = grown
	}
	n, err := f.r.Read(f.buf[len(f.buf):cap(f.buf)])
	f.buf = f.buf[:len(f.buf)+n]
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.EOF
	}
	return err
}

// readLine returns the next line without its \r\n (or \n) terminator.
// Lines are capped at maxPartHeader bytes.
func (f *Framer) readLine() ([]byte, error) {
	start := f.off
	for {
		if i := indexByteFrom(f.buf, f.off, start, '\n'); i >= 0 {
			line := f.buf[start:i]
			f.off = i + 1
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			if len(line) > maxPartHeader {
				return nil, ErrHeaderTooLarge
			}
			return line, nil
		}
		if len(f.buf)-start > maxPartHeader {
			return nil, ErrHeaderTooLarge
		}
		// fill() compacts from f.off; keep start anchored to the window.
		f.off = start
		if err := f.fill(); err != nil {
			if err == io.EOF {
				return nil, ErrTruncated
			}
			return nil, err
		}
		start = f.off
	}
}

// indexByteFrom finds c in buf[from:] (from >= floor), returning the
// absolute index or -1.
func indexByteFrom(buf []byte, from, floor int, c byte) int {
	if from < floor {
		from = floor
	}
	for i := from; i < len(buf); i++ {
		if buf[i] == c {
			return i
		}
	}
	return -1
}

// boundaryKind classifies a line against the part boundary.
type boundaryKind int

const (
	notBoundary boundaryKind = iota
	partBoundary
	finalBoundary
)

func (f *Framer) classifyBoundary(line []byte) boundaryKind {
	if len(line) < len(f.boundary) || string(line[:len(f.boundary)]) != string(f.boundary) {
		return notBoundary
	}
	rest := line[len(f.boundary):]
	switch {
	case len(rest) == 0:
		return partBoundary
	case len(rest) == 2 && rest[0] == '-' && rest[1] == '-':
		return finalBoundary
	default:
		return notBoundary
	}
}

func (f *Framer) nextPart() ([]byte, error) {
	if !f.started {
		// Skip any preamble: lines until the first boundary.
		for {
			line, err := f.readLine()
			if err != nil {
				return nil, err
			}
			switch f.classifyBoundary(line) {
			case partBoundary:
				f.started = true
			case finalBoundary:
				return nil, io.EOF
			default:
				continue
			}
			break
		}
	}
	// Part headers until the blank line.
	contentLength := -1
	headerBytes := 0
	for {
		line, err := f.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			break
		}
		headerBytes += len(line) + 2
		if headerBytes > maxPartHeader {
			return nil, ErrHeaderTooLarge
		}
		if v, ok := headerValue(line, "content-length"); ok {
			n, perr := parseDecimal(v)
			if perr != nil || n > MaxFrameBytes {
				if perr == nil {
					return nil, ErrFrameTooLarge
				}
				return nil, fmt.Errorf("%w: bad Content-Length %q", ErrBadFraming, v)
			}
			contentLength = n
		}
	}
	var frame []byte
	if contentLength >= 0 {
		if contentLength == 0 {
			return nil, ErrEmptyFrame
		}
		frame = make([]byte, contentLength)
		if err := f.readFull(frame); err != nil {
			return nil, ErrTruncated
		}
		// The body must be followed by a boundary line.
		line, err := f.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 { // tolerate the CRLF that closes the body
			if line, err = f.readLine(); err != nil {
				return nil, err
			}
		}
		switch f.classifyBoundary(line) {
		case partBoundary:
		case finalBoundary:
			f.done = true
		default:
			return nil, fmt.Errorf("%w: %d-byte body not followed by boundary", ErrBadFraming, contentLength)
		}
		return frame, nil
	}
	// No Content-Length: scan for the \r\n--boundary delimiter.
	frame, kind, err := f.scanDelimited()
	if err != nil {
		return nil, err
	}
	if kind == finalBoundary {
		f.done = true
	}
	if len(frame) == 0 {
		return nil, ErrEmptyFrame
	}
	return frame, nil
}

// scanDelimited reads a part body up to the next \r\n--boundary line,
// returning the body and whether the boundary was final.
func (f *Framer) scanDelimited() ([]byte, boundaryKind, error) {
	delim := make([]byte, 0, 2+len(f.boundary))
	delim = append(delim, '\r', '\n')
	delim = append(delim, f.boundary...)
	searched := 0
	for {
		window := f.buf[f.off:]
		if i := indexOfFrom(window, delim, searched); i >= 0 {
			// Copy the body out before touching the reader again: fill()
			// compacts the window, which would overwrite these bytes.
			f.frame = append(f.frame[:0], window[:i]...)
			body := f.frame
			f.off += i + len(delim)
			// Classify the boundary suffix: "--" = final, else the part
			// boundary line ends here (consume its CRLF / LF).
			kind := partBoundary
			if err := f.want(2); err == nil && f.buf[f.off] == '-' && f.buf[f.off+1] == '-' {
				kind = finalBoundary
				f.off += 2
			} else {
				if err := f.want(1); err != nil {
					return nil, 0, ErrTruncated
				}
				if f.buf[f.off] == '\r' {
					f.off++
					if err := f.want(1); err != nil {
						return nil, 0, ErrTruncated
					}
				}
				if f.buf[f.off] != '\n' {
					return nil, 0, ErrBadFraming
				}
				f.off++
			}
			return body, kind, nil
		}
		if len(window) > MaxFrameBytes {
			return nil, 0, ErrFrameTooLarge
		}
		// Re-scan only the unsearched tail (keep delim-1 overlap).
		searched = len(window) - len(delim) + 1
		if searched < 0 {
			searched = 0
		}
		if err := f.fill(); err != nil {
			if err == io.EOF {
				return nil, 0, ErrTruncated
			}
			return nil, 0, err
		}
	}
}

// want ensures n bytes are buffered past f.off.
func (f *Framer) want(n int) error {
	for len(f.buf)-f.off < n {
		if err := f.fill(); err != nil {
			return err
		}
	}
	return nil
}

// indexOfFrom is bytes.Index over hay[from:], mapped back to hay
// coordinates.
func indexOfFrom(hay, needle []byte, from int) int {
	if from < 0 {
		from = 0
	}
	if from > len(hay) {
		return -1
	}
	i := indexOf(hay[from:], needle)
	if i < 0 {
		return -1
	}
	return from + i
}

func indexOf(hay, needle []byte) int {
	if len(needle) == 0 {
		return 0
	}
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j := range needle {
			if hay[i+j] != needle[j] {
				continue outer
			}
		}
		return i
	}
	return -1
}

// headerValue matches a header line against a lowercase name,
// returning the trimmed value.
func headerValue(line []byte, name string) (string, bool) {
	if len(line) < len(name)+1 {
		return "", false
	}
	for i := 0; i < len(name); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return "", false
		}
	}
	if line[len(name)] != ':' {
		return "", false
	}
	v := line[len(name)+1:]
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == '\t') {
		v = v[:len(v)-1]
	}
	return string(v), true
}

func parseDecimal(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("non-digit %q", c)
		}
		n = n*10 + int(c-'0')
		if n > MaxFrameBytes+1 {
			return MaxFrameBytes + 1, nil // saturate: caller rejects
		}
	}
	return n, nil
}

// AppendMultipartFrame appends one multipart part (boundary line,
// Content-Length header, body) to dst — the encoder half of the MJPEG
// framing, for stream clients and tests.
func AppendMultipartFrame(dst []byte, boundary string, frame []byte) []byte {
	dst = append(dst, "--"...)
	dst = append(dst, boundary...)
	dst = append(dst, "\r\nContent-Type: image/x-portable-pixmap\r\nContent-Length: "...)
	dst = appendDecimal(dst, len(frame))
	dst = append(dst, "\r\n\r\n"...)
	dst = append(dst, frame...)
	dst = append(dst, "\r\n"...)
	return dst
}

// FinishMultipart appends the stream terminator.
func FinishMultipart(dst []byte, boundary string) []byte {
	dst = append(dst, "--"...)
	dst = append(dst, boundary...)
	dst = append(dst, "--\r\n"...)
	return dst
}

// AppendRawFrame appends one length-prefixed frame to dst.
func AppendRawFrame(dst []byte, frame []byte) []byte {
	var l [8]byte
	binary.LittleEndian.PutUint64(l[:], uint64(len(frame)))
	dst = append(dst, l[:]...)
	return append(dst, frame...)
}

// FinishRaw appends the zero-length clean-end marker.
func FinishRaw(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

func appendDecimal(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, tmp[i:]...)
}
