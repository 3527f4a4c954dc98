// Package serve is the multi-tenant compression service behind cmd/fzmodd:
// an HTTP daemon exposing compress / decompress / probe / region-read
// endpoints over one warm shared device.Platform, BufPool and SlabCache.
// An admission controller treats the platform's worker count as a global
// parallelism budget — every request leases a slice of it, excess requests
// queue with a max-wait and are shed with 429 beyond a bound. Every
// data-plane request takes the same path on its handler's own goroutine:
// parse and validate, lease, execute at the leased width, respond.
// /metrics exports flat counters fed from the serve-level request
// accounting plus Platform.Snapshot.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ErrOverloaded marks a request the admission controller refused: the
// wait queue was full, or the request queued longer than the configured
// max-wait. HTTP handlers map it to 429 Too Many Requests.
var ErrOverloaded = errors.New("serve: overloaded")

// Admission is a counting-semaphore admission controller over a global
// worker budget. A request Acquires a lease of n workers; while the
// budget is exhausted requests wait in FIFO order (a waiter is only
// granted when it reaches the head and its lease fits — larger requests
// are not starved by smaller ones slipping past). Waiters beyond maxQueue
// and waiters that outwait maxWait are shed with ErrOverloaded.
type Admission struct {
	maxQueue int
	maxWait  time.Duration

	mu     sync.Mutex
	budget int // mutable: Resize hot-reloads it under mu
	inUse  int
	peak   int
	queue  []*waiter

	granted int64
	queued  int64
	shed    int64
}

// waiter.n is the width the waiter will be granted; a shrink may clamp it
// while queued (under mu), so Acquire reads it back only after the grant
// channel closes.
type waiter struct {
	n       int
	granted chan struct{}
}

// NewAdmission sizes a controller: budget is the total concurrently
// leasable workers (min 1), maxQueue the bound on waiting requests (0
// sheds immediately once the budget is exhausted), maxWait how long a
// waiter may queue before being shed (0 waits forever).
func NewAdmission(budget, maxQueue int, maxWait time.Duration) *Admission {
	if budget < 1 {
		budget = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{budget: budget, maxQueue: maxQueue, maxWait: maxWait}
}

// Lease is a granted slice of the worker budget. Release returns it
// (idempotent); Workers is the width the holder may run with.
type Lease struct {
	a    *Admission
	n    int
	once sync.Once
}

// Workers returns the leased parallelism.
func (l *Lease) Workers() int { return l.n }

// Release hands the leased workers back and grants queued waiters that
// now fit. Safe to call more than once.
func (l *Lease) Release() {
	l.once.Do(func() { l.a.release(l.n) })
}

// Acquire leases n workers (clamped to [1, budget]), waiting in FIFO
// order behind earlier requests when the budget is exhausted. It returns
// ErrOverloaded when the wait queue is full or maxWait elapses first, and
// ctx.Err() when the caller's context ends while queued.
func (a *Admission) Acquire(ctx context.Context, n int) (*Lease, error) {
	if n < 1 {
		n = 1
	}

	a.mu.Lock()
	if n > a.budget {
		n = a.budget
	}
	if len(a.queue) == 0 && a.inUse+n <= a.budget {
		a.grantLocked(n)
		a.mu.Unlock()
		return &Lease{a: a, n: n}, nil
	}
	if len(a.queue) >= a.maxQueue {
		a.shed++
		depth := len(a.queue)
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: %d requests already queued", ErrOverloaded, depth)
	}
	w := &waiter{n: n, granted: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.queued++
	a.mu.Unlock()

	var timeout <-chan time.Time
	if a.maxWait > 0 {
		t := time.NewTimer(a.maxWait)
		defer t.Stop()
		timeout = t.C
	}
	// After the grant channel closes, w.n is the granted width — a
	// concurrent Resize shrink may have clamped it below the requested n.
	select {
	case <-w.granted:
		return &Lease{a: a, n: w.n}, nil
	case <-timeout:
		if a.abandon(w, true) {
			return nil, fmt.Errorf("%w: queued longer than %v", ErrOverloaded, a.maxWait)
		}
		// The grant raced the timeout; it is ours, so run with it.
		<-w.granted
		return &Lease{a: a, n: w.n}, nil
	case <-ctx.Done():
		if a.abandon(w, false) {
			return nil, ctx.Err()
		}
		// Granted concurrently with cancellation — the caller is leaving,
		// hand the workers straight back.
		<-w.granted
		a.release(w.n)
		return nil, ctx.Err()
	}
}

// grantLocked charges n workers to the budget. Caller holds mu.
func (a *Admission) grantLocked(n int) {
	a.inUse += n
	a.granted++
	if a.inUse > a.peak {
		a.peak = a.inUse
	}
}

// abandon removes w from the queue, counting it as shed when the
// controller (not the caller's context) gave up on it, and grants the
// waiters behind it that now reach the head and fit; false means w was
// already granted (its channel is, or is about to be, closed).
func (a *Admission) abandon(w *waiter, shed bool) bool {
	a.mu.Lock()
	i := slices.Index(a.queue, w)
	if i < 0 {
		a.mu.Unlock()
		return false
	}
	a.queue = slices.Delete(a.queue, i, i+1)
	if shed {
		a.shed++
	}
	a.grantFittingUnlock()
	return true
}

// release returns n workers and grants waiters from the head while their
// leases fit.
func (a *Admission) release(n int) {
	a.mu.Lock()
	a.inUse -= n
	a.grantFittingUnlock()
}

// grantFittingUnlock dequeues waiters from the head while their leases
// fit the budget, unlocks mu (which the caller holds) and then signals
// them.
func (a *Admission) grantFittingUnlock() {
	var grants []*waiter
	for len(a.queue) > 0 {
		w := a.queue[0]
		if a.inUse+w.n > a.budget {
			break
		}
		a.grantLocked(w.n)
		a.queue = a.queue[1:]
		grants = append(grants, w)
	}
	a.mu.Unlock()
	for _, w := range grants {
		close(w.granted)
	}
}

// Resize hot-reloads the worker budget without dropping queued requests.
// Growing immediately grants queued waiters that now fit; shrinking takes
// effect as leases release (outstanding leases are never revoked) and
// clamps queued waiters' widths to the new budget so none is starved by
// asking for more workers than will ever exist again.
func (a *Admission) Resize(budget int) {
	if budget < 1 {
		budget = 1
	}
	a.mu.Lock()
	a.budget = budget
	for _, w := range a.queue {
		if w.n > budget {
			w.n = budget
		}
	}
	a.grantFittingUnlock()
}

// Budget returns the total leasable workers.
func (a *Admission) Budget() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget
}

// InUse returns the workers currently leased.
func (a *Admission) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// Peak returns the high-water mark of leased workers — never above
// Budget, which is the controller's core invariant.
func (a *Admission) Peak() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// QueueDepth returns the requests currently waiting.
func (a *Admission) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// Shed returns the cumulative requests refused (queue full or max-wait).
func (a *Admission) Shed() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shed
}

// Granted returns the cumulative leases granted.
func (a *Admission) Granted() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.granted
}
