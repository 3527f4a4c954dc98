package stf

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fzmod/internal/device"
)

// Ctx owns a task graph: dependency inference over declared tokens and
// asynchronous execution. Create with NewCtx, submit tasks, then call
// Finalize exactly once. Release retires the worker pools once results
// have been read; a Ctx is not reusable after Finalize (Reset is the reuse
// path and keeps the workers warm).
//
// Execution model: each place owns a bounded work-stealing worker pool. A
// task becomes ready the moment its last dependency completes (dependency
// counting, no waiting goroutines) and is pushed onto the completing
// worker's own deque — the chunk sub-graph stays on the worker whose
// caches (and scratch-pool shard) are warm — while idle workers steal the
// oldest ready task from a sibling, so uneven sub-graphs rebalance. The
// pool width bounds in-flight task bodies per place, the bounded-worker
// discipline a finite ring of CUDA streams imposes.
type Ctx struct {
	p *Platform

	// gctx, when non-nil, bounds the graph's execution (see Bind): the
	// scheduler checks it at every dispatch boundary, so a cancellation or
	// deadline stops declared-but-not-started work instead of orphaning it.
	gctx context.Context

	mu       sync.Mutex
	nextTask int
	tasks    []*task
	edges    map[[2]int]struct{} // dedup for DOT export
	scheds   map[device.Place]*sched
	maxConc  int
}

// Platform is the subset of device.Platform the engine needs; using the
// concrete type keeps call sites simple.
type Platform = device.Platform

// NewCtx creates a task-flow context over a platform whose per-place
// worker-pool width, bounding in-flight task bodies, is maxConcurrent;
// maxConcurrent <= 0 selects the platform's worker width at each place.
func NewCtx(p *Platform, maxConcurrent int) *Ctx {
	return &Ctx{
		p:       p,
		edges:   make(map[[2]int]struct{}),
		scheds:  make(map[device.Place]*sched),
		maxConc: maxConcurrent,
	}
}

// Platform returns the underlying execution platform.
func (c *Ctx) Platform() *Platform { return c.p }

// Bind attaches a cancellation context to the graph and returns the Ctx
// for chaining. Once gctx is done, every task body not yet started fails
// with the context's error at its dispatch boundary (already-running
// bodies finish normally), dependents skip through the usual ErrSkipped
// chain, and Finalize/Reset drain the whole graph and surface the
// cancellation once — so no goroutine or pooled buffer is orphaned, work
// just stops being done. Bind before submitting tasks; a nil gctx (or not
// calling Bind) leaves the graph unbounded, exactly as context.Background.
func (c *Ctx) Bind(gctx context.Context) *Ctx {
	if gctx != nil && gctx != context.Background() {
		c.gctx = gctx
	}
	return c
}

// Context returns the bound cancellation context (context.Background when
// none was bound) — task bodies pass it to context-aware I/O.
func (c *Ctx) Context() context.Context {
	if c.gctx == nil {
		return context.Background()
	}
	return c.gctx
}

// ctxErr reports the bound context's cancellation error, or nil.
func (c *Ctx) ctxErr() error {
	if c.gctx == nil {
		return nil
	}
	select {
	case <-c.gctx.Done():
		return c.gctx.Err()
	default:
		return nil
	}
}

// task is one node of the DAG.
type task struct {
	id    int
	name  string
	place device.Place
	deps  []*task
	body  func(*TaskInstance) error
	done  chan struct{}
	err   error

	// Scheduler state, guarded by Ctx.mu: the count of incomplete
	// dependencies, the tasks to notify on completion, and whether this
	// task has completed (so late dependents don't register).
	pending    int
	dependents []*task
	completed  bool

	started time.Time
	ended   time.Time
	worker  int // pool slot that executed the task (for the trace)
}

type taskAccess struct {
	tok  *Token
	mode AccessMode
}

// TaskBuilder accumulates a task declaration; created by Ctx.Task and
// consumed by Do.
type TaskBuilder struct {
	ctx    *Ctx
	name   string
	place  device.Place
	access []taskAccess
}

// Task starts declaring a named task. The default place is Host.
func (c *Ctx) Task(name string) *TaskBuilder {
	return &TaskBuilder{ctx: c, name: name, place: device.Host}
}

// On sets the execution place of the task.
func (b *TaskBuilder) On(place device.Place) *TaskBuilder {
	b.place = place
	return b
}

// Reads declares read access to each token.
func (b *TaskBuilder) Reads(toks ...*Token) *TaskBuilder {
	return b.declare(Read, toks)
}

// Writes declares full-overwrite access to each token.
func (b *TaskBuilder) Writes(toks ...*Token) *TaskBuilder {
	return b.declare(Write, toks)
}

// ReadsWrites declares read-modify-write access to each token.
func (b *TaskBuilder) ReadsWrites(toks ...*Token) *TaskBuilder {
	return b.declare(ReadWrite, toks)
}

func (b *TaskBuilder) declare(mode AccessMode, toks []*Token) *TaskBuilder {
	for _, tok := range toks {
		b.access = append(b.access, taskAccess{tok, mode})
	}
	return b
}

// TaskInstance is passed to a task body: it identifies the resolved
// execution place and gives the body the executing worker's private
// scratch-pool shard.
type TaskInstance struct {
	name  string
	place device.Place
	shard *device.PoolShard
}

// Place reports where the task is executing.
func (ti *TaskInstance) Place() device.Place { return ti.place }

// Name reports the task's debug name.
func (ti *TaskInstance) Name() string { return ti.name }

// Shard returns the executing worker's private scratch-pool shard: slab
// checkouts through it skip the shared pool when the worker has a cached
// slab of the right class. The shard must not escape the task body.
func (ti *TaskInstance) Shard() *device.PoolShard { return ti.shard }

// Do finalizes the declaration and submits the task for asynchronous
// execution. Dependencies are inferred from the access declarations against
// the sequential program order of prior submissions:
//
//   - Read  depends on the datum's last writer (RAW).
//   - Write/ReadWrite depends on the last writer (WAW) and on every reader
//     admitted since (WAR), then becomes the new last writer.
//
// Do returns immediately; the task is dispatched onto one of its place's
// streams once every dependency has completed.
func (b *TaskBuilder) Do(body func(*TaskInstance) error) {
	c := b.ctx
	t := &task{
		name:  b.name,
		place: b.place,
		body:  body,
		done:  make(chan struct{}),
	}

	c.mu.Lock()
	t.id = c.nextTask
	c.nextTask++
	depSet := make(map[*task]struct{})
	for _, a := range b.access {
		tok := a.tok
		switch a.mode {
		case Read:
			if tok.lastWriter != nil {
				depSet[tok.lastWriter] = struct{}{}
			}
			tok.readers = append(tok.readers, t)
		case Write, ReadWrite:
			if tok.lastWriter != nil {
				depSet[tok.lastWriter] = struct{}{}
			}
			for _, r := range tok.readers {
				if r != t {
					depSet[r] = struct{}{}
				}
			}
			tok.lastWriter = t
			tok.readers = tok.readers[:0]
		}
	}
	delete(depSet, t)
	for d := range depSet {
		t.deps = append(t.deps, d)
		c.edges[[2]int{d.id, t.id}] = struct{}{}
		if !d.completed {
			t.pending++
			d.dependents = append(d.dependents, t)
		}
	}
	c.tasks = append(c.tasks, t)
	ready := t.pending == 0
	c.mu.Unlock()

	if ready {
		c.dispatch(t, nil)
	}
}

// dispatch hands a ready task to its place's worker pool; from is the
// worker that made it ready (nil for declaration-time submissions), so
// same-pool completions keep the sub-graph on the warm worker.
func (c *Ctx) dispatch(t *task, from *schedWorker) {
	c.schedFor(t.place).submit(t, from)
}

// schedFor returns the worker pool of a place, spawning it on first use
// with the context's concurrency bound (or the platform worker width).
func (c *Ctx) schedFor(place device.Place) *sched {
	c.mu.Lock()
	s := c.scheds[place]
	if s == nil {
		n := c.maxConc
		if n <= 0 {
			n = c.p.Workers(place)
		}
		s = newSched(c, n)
		c.scheds[place] = s
	}
	c.mu.Unlock()
	return s
}

// runOn executes a dispatched task body on a pool worker and notifies
// dependents. All dependencies are complete when it is called.
func (c *Ctx) runOn(t *task, w *schedWorker) {
	var depErr error
	for _, d := range t.deps {
		if d.err != nil {
			depErr = fmt.Errorf("%w: %q failed: %v", ErrSkipped, d.name, d.err)
			break
		}
	}
	if depErr != nil {
		t.err = depErr
	} else if gerr := c.ctxErr(); gerr != nil {
		// Dispatch boundary of the bound context: the body never starts.
		// The message carries no task name so Finalize folds the fate of
		// every not-yet-started task into one reported cancellation.
		t.err = fmt.Errorf("stf: graph canceled: %w", gerr)
	} else {
		ti := &TaskInstance{name: t.name, place: t.place, shard: w.shard}
		t.started = time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.err = fmt.Errorf("stf: task %q panicked: %v", t.name, r)
				}
			}()
			t.err = t.body(ti)
		}()
		t.ended = time.Now()
	}

	c.mu.Lock()
	t.completed = true
	t.worker = w.id
	var ready []*task
	for _, dep := range t.dependents {
		dep.pending--
		if dep.pending == 0 {
			ready = append(ready, dep)
		}
	}
	t.dependents = nil
	c.mu.Unlock()
	close(t.done)
	for _, r := range ready {
		c.dispatch(r, w)
	}
}

// Finalize waits for every submitted task and returns the joined errors of
// all failed tasks (skips are folded into their root cause). The Ctx must
// not be used afterwards except to read its trace and call Release.
func (c *Ctx) Finalize() error {
	c.mu.Lock()
	tasks := c.tasks
	c.mu.Unlock()
	var errs []error
	seen := make(map[string]bool)
	for _, t := range tasks {
		<-t.done
		if t.err != nil && !errors.Is(t.err, ErrSkipped) {
			key := t.name + ":" + t.err.Error()
			wrapped := fmt.Errorf("task %q: %w", t.name, t.err)
			if errors.Is(t.err, context.Canceled) || errors.Is(t.err, context.DeadlineExceeded) {
				// A canceled graph fails every unstarted task identically;
				// report the cancellation once, unattributed.
				key = t.err.Error()
				wrapped = t.err
			}
			if !seen[key] {
				seen[key] = true
				errs = append(errs, wrapped)
			}
		}
	}
	return errors.Join(errs...)
}

// Reset drains the graph like Finalize and then clears the task registry
// so the context can be reused for the next batch of a windowed pipeline:
// the per-place worker pools stay warm across batches, which is what lets
// a streaming compressor run thousands of window-sized graphs over one
// context. Tokens declared before Reset must not be used afterwards.
// Returns the joined errors of the drained batch, exactly as Finalize
// reports them.
func (c *Ctx) Reset() error {
	err := c.Finalize()
	c.mu.Lock()
	c.tasks = nil
	c.edges = make(map[[2]int]struct{})
	c.nextTask = 0
	c.mu.Unlock()
	return err
}

// Release retires the worker pools (their shard caches drain back to the
// shared pool). Call after Finalize or Reset; no further tasks may be
// submitted afterwards. Release is idempotent.
func (c *Ctx) Release() {
	c.mu.Lock()
	scheds := c.scheds
	c.scheds = make(map[device.Place]*sched)
	c.mu.Unlock()
	for _, s := range scheds {
		s.close()
	}
}
