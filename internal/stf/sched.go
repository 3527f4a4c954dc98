package stf

import "sync"

// This file is the engine's scheduler: one work-stealing worker pool per
// execution place. Each worker owns a bounded deque of ready tasks; tasks
// made ready by a completion are pushed onto the completing worker's own
// deque (the chunk sub-graph keeps executing on the worker whose caches
// are warm), idle workers first drain
// the shared inject queue and then steal the oldest task from a sibling,
// so chunk sub-graphs with uneven stage costs redistribute instead of
// convoying behind the slowest worker. The pool width is the per-place
// in-flight bound the bounded stream pools used to impose.

// workerQueueCap bounds each worker's deque; overflow spills to the
// shared inject queue, keeping the rings allocation-free in steady state.
const workerQueueCap = 64

// sched is the worker pool of one place.
type sched struct {
	c  *Ctx
	ws []*schedWorker

	mu      sync.Mutex
	cond    *sync.Cond
	inject  []*task // shared overflow/entry queue, FIFO via injHead
	injHead int
	parked  int
	closed  bool
	exited  sync.WaitGroup
}

// schedWorker is one worker goroutine's state. The deque is guarded by its
// own mutex (the critical sections are a few pointer moves); padding keeps
// neighbouring workers' hot state off one cache line.
type schedWorker struct {
	id int
	s  *sched

	mu sync.Mutex
	dq []*task // owner pushes/pops the tail; thieves pop the head
	_  [64]byte
}

// newSched spawns n workers executing tasks of the context at one place.
func newSched(c *Ctx, n int) *sched {
	if n < 1 {
		n = 1
	}
	s := &sched{c: c}
	s.cond = sync.NewCond(&s.mu)
	s.ws = make([]*schedWorker, n)
	for i := range s.ws {
		s.ws[i] = &schedWorker{id: i, s: s, dq: make([]*task, 0, workerQueueCap)}
	}
	s.exited.Add(n)
	for _, w := range s.ws {
		go w.loop()
	}
	return s
}

// submit hands a ready task to the pool. When the submitter is one of this
// pool's workers the task lands on its own deque (bounded; overflow goes
// to the inject queue); external submissions (graph declaration, workers
// of another place) go through the inject queue.
func (s *sched) submit(t *task, from *schedWorker) {
	if from != nil && from.s == s && from.tryPush(t) {
		s.wake()
		return
	}
	s.mu.Lock()
	s.inject = append(s.inject, t)
	if s.parked > 0 {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// wake signals one parked worker, if any. Callers must not hold any worker
// deque lock (lock order is sched.mu before worker.mu).
func (s *sched) wake() {
	s.mu.Lock()
	if s.parked > 0 {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// tryPush appends to the owner's deque unless it is full.
func (w *schedWorker) tryPush(t *task) bool {
	w.mu.Lock()
	if len(w.dq) >= workerQueueCap {
		w.mu.Unlock()
		return false
	}
	w.dq = append(w.dq, t)
	w.mu.Unlock()
	return true
}

// popTail removes the owner's most recently pushed task (LIFO: the tail is
// the task whose inputs the owner just produced).
func (w *schedWorker) popTail() *task {
	w.mu.Lock()
	n := len(w.dq)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	t := w.dq[n-1]
	w.dq[n-1] = nil
	w.dq = w.dq[:n-1]
	w.mu.Unlock()
	return t
}

// stealHead removes a victim's oldest task (FIFO end: the task that has
// waited longest, typically the root of an untouched sub-graph).
func (w *schedWorker) stealHead() *task {
	w.mu.Lock()
	if len(w.dq) == 0 {
		w.mu.Unlock()
		return nil
	}
	t := w.dq[0]
	copy(w.dq, w.dq[1:])
	w.dq[len(w.dq)-1] = nil
	w.dq = w.dq[:len(w.dq)-1]
	w.mu.Unlock()
	return t
}

// popInjectLocked takes the oldest injected task; requires s.mu.
func (s *sched) popInjectLocked() *task {
	if s.injHead >= len(s.inject) {
		return nil
	}
	t := s.inject[s.injHead]
	s.inject[s.injHead] = nil
	s.injHead++
	if s.injHead == len(s.inject) {
		s.inject = s.inject[:0]
		s.injHead = 0
	}
	return t
}

// acquire blocks until work is available for w or the pool closes (nil).
// The scan runs under s.mu: a submitter that pushed before the scan is
// seen by it, and one that pushes after acquires s.mu once the worker is
// parked and signals it — no lost wakeups.
func (s *sched) acquire(w *schedWorker) *task {
	s.mu.Lock()
	for {
		if t := s.popInjectLocked(); t != nil {
			s.mu.Unlock()
			return t
		}
		for i := 1; i < len(s.ws); i++ {
			victim := s.ws[(w.id+i)%len(s.ws)]
			if t := victim.stealHead(); t != nil {
				s.mu.Unlock()
				return t
			}
		}
		if s.closed {
			s.mu.Unlock()
			return nil
		}
		s.parked++
		s.cond.Wait()
		s.parked--
	}
}

// loop is the worker body: drain own deque, then the shared queues, then
// park.
func (w *schedWorker) loop() {
	defer w.s.exited.Done()
	for {
		t := w.popTail()
		if t == nil {
			t = w.s.acquire(w)
			if t == nil {
				return
			}
		}
		w.s.c.runOn(t, w)
	}
}

// close wakes every worker and waits for them to exit. All submitted
// tasks must have completed (Finalize/Reset) before closing.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.exited.Wait()
}
