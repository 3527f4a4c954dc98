package stf

import "sync"

// This file is the engine's scheduler: one worker pool per execution place,
// whose workers share one mutex-guarded ready queue. The queue is two
// lists. Tasks made ready by one of the place's own workers go on a LIFO
// stack, so a chunk's next stage on the same place (fetch → decode) runs
// right after the stage that fed it, while its data is warm; tasks from graph
// declaration or from a worker of the other place go on a FIFO. A worker
// takes the top of the stack, else the head of the FIFO, else parks on the
// pool's condition variable. The pool width is the per-place bound on
// in-flight task bodies.

// sched is the worker pool of one place.
type sched struct {
	c *Ctx

	mu     sync.Mutex
	cond   sync.Cond
	stack  []*task // readied by this pool's workers; newest first
	fifo   []*task // declared or readied elsewhere; oldest first from head
	head   int
	closed bool
	exited sync.WaitGroup
}

// newSched spawns n workers executing tasks of the context at one place.
func newSched(c *Ctx, n int) *sched {
	n = max(n, 1)
	s := &sched{c: c}
	s.cond.L = &s.mu
	s.exited.Add(n)
	for id := 0; id < n; id++ {
		go s.loop(id)
	}
	return s
}

// submit queues a ready task. from is the pool of the worker that made it
// ready (nil at declaration): the pool's own readied tasks go on the stack,
// every other task on the FIFO.
func (s *sched) submit(t *task, from *sched) {
	s.mu.Lock()
	if from == s {
		s.stack = append(s.stack, t)
	} else {
		s.fifo = append(s.fifo, t)
	}
	s.mu.Unlock()
	s.cond.Signal()
}

// next blocks until a task is ready or the pool closes (nil). A worker
// checks both lists under mu before it waits, and a submitter signals after
// it queued under mu, so no wakeup is lost.
func (s *sched) next() *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if n := len(s.stack); n > 0 {
			t := s.stack[n-1]
			s.stack[n-1] = nil
			s.stack = s.stack[:n-1]
			return t
		}
		if s.head < len(s.fifo) {
			t := s.fifo[s.head]
			s.fifo[s.head] = nil
			s.head++
			if s.head == len(s.fifo) {
				s.fifo, s.head = s.fifo[:0], 0
			}
			return t
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// loop is the body of worker slot id.
func (s *sched) loop(id int) {
	defer s.exited.Done()
	for t := s.next(); t != nil; t = s.next() {
		s.c.runOn(t, id, s)
	}
}

// close wakes every worker and waits for them to exit. All submitted
// tasks must have completed (Finalize) before closing.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.exited.Wait()
}
