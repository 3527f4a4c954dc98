package fzio

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file defines the pluggable byte-range storage abstraction the
// random-access read path is built on. A ChunkFetcher serves ranges of one
// container artifact — a local file, an in-memory blob, or an HTTP object
// behind Range requests — and the region planner (internal/core) asks it
// only for the index and the payloads of the chunks a selection actually
// intersects, so serving a small subvolume of a huge remote dataset never
// transfers the whole container.

// ErrRangeViolation marks a request for bytes outside the artifact — a
// caller bug or a poisoned index.
var ErrRangeViolation = errors.New("fzio: range violation")

// HTTPStatusError is a non-success HTTP response surfaced by HTTPFetcher.
// It preserves the status code so callers can tell server trouble (5xx)
// from request trouble (4xx).
type HTTPStatusError struct {
	Code   int
	Status string
}

// Error implements error.
func (e *HTTPStatusError) Error() string { return "fzio: http status " + e.Status }

// ChunkFetcher serves byte ranges of one container artifact. Implementations
// must be safe for concurrent ReadRange calls: the region read path fetches
// the chunks of a selection in parallel.
type ChunkFetcher interface {
	// ReadRange returns exactly n bytes of the artifact starting at byte
	// offset off. A response shorter than n bytes is an error, never a
	// silent truncation; the returned slice is owned by the caller.
	ReadRange(off int64, n int) ([]byte, error)
	// Size returns the artifact's total length in bytes.
	Size() (int64, error)
}

// BytesFetcher serves ranges of an in-memory container blob — the
// zero-dependency fetcher for artifacts already resident, and the reference
// implementation the others are tested against.
type BytesFetcher struct {
	blob []byte
}

// NewBytesFetcher wraps blob as a ChunkFetcher. The blob is not copied.
func NewBytesFetcher(blob []byte) *BytesFetcher { return &BytesFetcher{blob: blob} }

// ReadRange implements ChunkFetcher.
func (b *BytesFetcher) ReadRange(off int64, n int) ([]byte, error) {
	if err := checkRange(off, n, int64(len(b.blob))); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b.blob[off:])
	return out, nil
}

// Size implements ChunkFetcher.
func (b *BytesFetcher) Size() (int64, error) { return int64(len(b.blob)), nil }

// ReaderAtFetcher adapts any io.ReaderAt of known size — the local-storage
// fetcher (os.File implements io.ReaderAt) and the adapter for mmap'd or
// sectioned sources.
type ReaderAtFetcher struct {
	r    io.ReaderAt
	size int64
}

// NewReaderAtFetcher wraps r, which must serve [0, size).
func NewReaderAtFetcher(r io.ReaderAt, size int64) *ReaderAtFetcher {
	return &ReaderAtFetcher{r: r, size: size}
}

// ReadRange implements ChunkFetcher.
func (f *ReaderAtFetcher) ReadRange(off int64, n int) ([]byte, error) {
	if err := checkRange(off, n, f.size); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if k, err := f.r.ReadAt(out, off); k < n {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("fzio: fetcher short read: %d of %d bytes at %d: %w", k, n, off, err)
	}
	return out, nil
}

// Size implements ChunkFetcher.
func (f *ReaderAtFetcher) Size() (int64, error) { return f.size, nil }

// FileFetcher serves ranges of a container file on local storage.
type FileFetcher struct {
	ReaderAtFetcher
	f *os.File
}

// NewFileFetcher opens path for random-access reads. Close releases the
// file handle.
func NewFileFetcher(path string) (*FileFetcher, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileFetcher{ReaderAtFetcher: ReaderAtFetcher{r: f, size: fi.Size()}, f: f}, nil
}

// Close releases the underlying file handle.
func (f *FileFetcher) Close() error { return f.f.Close() }

// HTTPFetcher serves ranges of a container published over HTTP using Range
// requests (RFC 9110 §14), so region reads against an object store or a
// plain file server transfer only the chunks a selection needs. Servers
// that ignore Range and answer 200 with the full body still work — the
// fetcher discards the prefix and truncates — but lose the partial-read
// economy.
type HTTPFetcher struct {
	client *http.Client
	url    string
}

// NewHTTPFetcher builds a fetcher for the container at url. A nil client
// selects http.DefaultClient.
func NewHTTPFetcher(url string, client *http.Client) *HTTPFetcher {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPFetcher{client: client, url: url}
}

// ReadRange implements ChunkFetcher with a single Range GET.
func (h *HTTPFetcher) ReadRange(off int64, n int) ([]byte, error) {
	if n <= 0 || off < 0 {
		return nil, fmt.Errorf("%w: bad range [%d,%d+%d)", ErrRangeViolation, off, off, n)
	}
	req, err := http.NewRequest(http.MethodGet, h.url, nil)
	if err != nil {
		return nil, fmt.Errorf("fzio: range request: %w", err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(n)-1))
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fzio: range request: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
		// The requested window, as asked.
	case http.StatusOK:
		// Range ignored: the body is the whole artifact. Skip to the
		// window so the caller still gets exactly its bytes.
		if _, err := io.CopyN(io.Discard, resp.Body, off); err != nil {
			return nil, fmt.Errorf("fzio: range response truncated before offset %d: %w", off, err)
		}
	default:
		return nil, fmt.Errorf("fzio: range request for [%d,%d): %w",
			off, off+int64(n), &HTTPStatusError{Code: resp.StatusCode, Status: resp.Status})
	}
	out := make([]byte, n)
	if k, err := io.ReadFull(resp.Body, out); k < n {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("fzio: range response truncated: %d of %d bytes at %d: %w", k, n, off, err)
	}
	return out, nil
}

// Size implements ChunkFetcher with a HEAD request. Servers that reject
// HEAD (405/403/501 are all seen in the wild) or answer it without a
// Content-Length fall back to a one-byte Range GET whose Content-Range
// header carries the artifact's total length.
func (h *HTTPFetcher) Size() (int64, error) {
	resp, err := h.client.Head(h.url)
	if err != nil {
		return h.sizeViaRange(fmt.Errorf("fzio: HEAD: %w", err))
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h.sizeViaRange(fmt.Errorf("fzio: HEAD: %w", &HTTPStatusError{Code: resp.StatusCode, Status: resp.Status}))
	}
	if resp.ContentLength < 0 {
		return h.sizeViaRange(errors.New("fzio: HEAD response carries no Content-Length"))
	}
	return resp.ContentLength, nil
}

// sizeViaRange recovers the artifact size from a `Range: bytes=0-0` GET
// when HEAD failed with headErr: a 206 answer states the total after the
// slash in Content-Range (RFC 9110 §14.4), and a 200 answer (Range
// ignored) states it in Content-Length. Any other outcome surfaces the
// original HEAD error, which names the more fundamental problem.
func (h *HTTPFetcher) sizeViaRange(headErr error) (int64, error) {
	req, err := http.NewRequest(http.MethodGet, h.url, nil)
	if err != nil {
		return 0, headErr
	}
	req.Header.Set("Range", "bytes=0-0")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, headErr
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
		total, ok := parseContentRangeTotal(resp.Header.Get("Content-Range"))
		if !ok {
			return 0, fmt.Errorf("fzio: probe GET carries no usable Content-Range (HEAD failed: %w)", headErr)
		}
		return total, nil
	case http.StatusOK:
		if resp.ContentLength >= 0 {
			return resp.ContentLength, nil
		}
	}
	return 0, headErr
}

// parseContentRangeTotal extracts the complete length from a
// "bytes first-last/complete" Content-Range value. An unknown total
// ("bytes 0-0/*") or any other shape reports false.
func parseContentRangeTotal(v string) (int64, bool) {
	v = strings.TrimSpace(v)
	if !strings.HasPrefix(v, "bytes") {
		return 0, false
	}
	_, totalStr, ok := strings.Cut(v, "/")
	if !ok {
		return 0, false
	}
	total, err := strconv.ParseInt(strings.TrimSpace(totalStr), 10, 64)
	if err != nil || total < 0 {
		return 0, false
	}
	return total, true
}

// CountingFetcher wraps a fetcher with atomic request/byte counters — the
// instrument behind the "a 1-of-8-chunk region reads a fraction of the
// container" guarantee, used by tests, the region benchmark, and the
// regionread example.
type CountingFetcher struct {
	inner ChunkFetcher
	reads atomic.Int64
	bytes atomic.Int64
}

// NewCountingFetcher wraps inner.
func NewCountingFetcher(inner ChunkFetcher) *CountingFetcher {
	return &CountingFetcher{inner: inner}
}

// ReadRange implements ChunkFetcher, counting the request and its bytes.
func (c *CountingFetcher) ReadRange(off int64, n int) ([]byte, error) {
	out, err := c.inner.ReadRange(off, n)
	c.reads.Add(1)
	c.bytes.Add(int64(len(out)))
	return out, err
}

// Size implements ChunkFetcher.
func (c *CountingFetcher) Size() (int64, error) { return c.inner.Size() }

// Reads returns the ReadRange calls observed so far.
func (c *CountingFetcher) Reads() int64 { return c.reads.Load() }

// BytesRead returns the payload bytes returned so far.
func (c *CountingFetcher) BytesRead() int64 { return c.bytes.Load() }

// Reset zeroes both counters.
func (c *CountingFetcher) Reset() {
	c.reads.Store(0)
	c.bytes.Store(0)
}

// checkRange validates a [off, off+n) window against an artifact size.
func checkRange(off int64, n int, size int64) error {
	if off < 0 || n <= 0 || off+int64(n) > size {
		return fmt.Errorf("%w: [%d,%d) outside artifact of %d bytes", ErrRangeViolation, off, off+int64(n), size)
	}
	return nil
}
