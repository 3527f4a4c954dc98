package device

import "sync"

// Stream is an in-order asynchronous work queue bound to one place,
// mirroring a CUDA stream: operations enqueued on the same stream execute
// sequentially; operations on different streams may overlap. The stf
// package schedules independent pipeline stages onto separate streams to
// obtain the branch-level concurrency the paper describes (§3.3.1).
type Stream struct {
	p     *Platform
	place Place

	mu      sync.Mutex
	tail    chan struct{} // closed when the last enqueued op completes
	started bool
}

// NewStream creates a stream executing at place.
func (p *Platform) NewStream(place Place) *Stream {
	done := make(chan struct{})
	close(done)
	return &Stream{p: p, place: place, tail: done}
}

// Place reports the execution place of the stream.
func (s *Stream) Place() Place { return s.place }

// Enqueue schedules fn after all previously enqueued work on this stream.
// It returns immediately; use Sync to wait.
func (s *Stream) Enqueue(fn func()) {
	s.mu.Lock()
	prev := s.tail
	done := make(chan struct{})
	s.tail = done
	s.mu.Unlock()
	go func() {
		<-prev
		fn()
		close(done)
	}()
}

// Launch enqueues a grid launch of kernel over [0, n) on this stream.
func (s *Stream) Launch(n int, kernel func(lo, hi int)) {
	s.Enqueue(func() { s.p.LaunchGrid(s.place, n, kernel) })
}

// Sync blocks until all work enqueued so far has completed.
func (s *Stream) Sync() {
	s.mu.Lock()
	tail := s.tail
	s.mu.Unlock()
	<-tail
}
