package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmissionGrantsWithinBudget(t *testing.T) {
	a := NewAdmission(4, 8, 0)
	l1, err := a.Acquire(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Workers() != 3 || a.InUse() != 3 {
		t.Fatalf("lease %d workers, in use %d; want 3, 3", l1.Workers(), a.InUse())
	}
	l2, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	l1.Release()
	l1.Release() // idempotent
	l2.Release()
	if a.InUse() != 0 {
		t.Fatalf("in use %d after releases, want 0", a.InUse())
	}
	if a.Granted() != 2 {
		t.Fatalf("granted %d, want 2", a.Granted())
	}
}

func TestAdmissionClampsOversizedLease(t *testing.T) {
	a := NewAdmission(2, 0, 0)
	l, err := a.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if l.Workers() != 2 {
		t.Fatalf("lease %d workers, want clamp to budget 2", l.Workers())
	}
}

func TestAdmissionQueuesFIFO(t *testing.T) {
	a := NewAdmission(1, 8, 0)
	hold, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	start := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := a.Acquire(context.Background(), 1)
			if err != nil {
				t.Error(err)
				return
			}
			order <- id
			l.Release()
		}()
	}
	start(1)
	for a.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	start(2)
	for a.QueueDepth() < 2 {
		time.Sleep(time.Millisecond)
	}
	hold.Release()
	wg.Wait()
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("grant order %d,%d; want FIFO 1,2", first, second)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := NewAdmission(1, 0, 0)
	hold, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	if _, err := a.Acquire(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if a.Shed() != 1 {
		t.Fatalf("shed %d, want 1", a.Shed())
	}
}

func TestAdmissionShedsOnMaxWait(t *testing.T) {
	a := NewAdmission(1, 8, 5*time.Millisecond)
	hold, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	t0 := time.Now()
	if _, err := a.Acquire(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(t0); waited < 5*time.Millisecond {
		t.Fatalf("shed after %v, before the 5ms max-wait", waited)
	}
	if a.Shed() != 1 || a.QueueDepth() != 0 {
		t.Fatalf("shed=%d depth=%d, want 1, 0", a.Shed(), a.QueueDepth())
	}
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := NewAdmission(1, 8, 0)
	hold, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, 1)
		done <- err
	}()
	for a.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A caller-canceled wait is not the controller's refusal.
	if a.Shed() != 0 {
		t.Fatalf("shed %d, want 0 for caller cancellation", a.Shed())
	}
	hold.Release()
	if a.InUse() != 0 {
		t.Fatalf("in use %d, want 0 (canceled waiter must not hold workers)", a.InUse())
	}
}

// TestAdmissionAbandonGrantsWaitersBehind: when the head waiter leaves the
// queue — its caller cancels, or it outwaits maxWait — the waiters behind
// it that now fit are granted at once, not at the next unrelated release.
func TestAdmissionAbandonGrantsWaitersBehind(t *testing.T) {
	for _, exit := range []string{"cancel", "maxWait"} {
		t.Run(exit, func(t *testing.T) {
			var maxWait time.Duration
			wantHead := context.Canceled
			if exit == "maxWait" {
				maxWait, wantHead = 200*time.Millisecond, ErrOverloaded
			}
			a := NewAdmission(4, 8, maxWait)
			hold, err := a.Acquire(context.Background(), 3)
			if err != nil {
				t.Fatal(err)
			}
			defer hold.Release()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			headErr := make(chan error, 1)
			go func() {
				_, err := a.Acquire(ctx, 4)
				headErr <- err
			}()
			for a.QueueDepth() < 1 {
				time.Sleep(time.Millisecond)
			}
			// The waiter behind queues well after the head, so its own
			// max-wait runs out long after the head's.
			time.Sleep(maxWait / 2)
			type result struct {
				l   *Lease
				err error
			}
			behind := make(chan result, 1)
			go func() {
				l, err := a.Acquire(context.Background(), 1)
				behind <- result{l, err}
			}()
			for a.QueueDepth() < 2 {
				time.Sleep(time.Millisecond)
			}
			if exit == "cancel" {
				cancel()
			}
			if err := <-headErr; !errors.Is(err, wantHead) {
				t.Fatalf("head waiter: err = %v, want %v", err, wantHead)
			}
			select {
			case r := <-behind:
				if r.err != nil {
					t.Fatalf("1-worker waiter: %v, want a grant once the head left", r.err)
				}
				if a.InUse() != 4 {
					t.Errorf("in use %d, want 4 (3 held + 1 granted)", a.InUse())
				}
				r.l.Release()
			case <-time.After(time.Second):
				t.Fatalf("1-worker waiter still queued with %d of 4 workers in use", a.InUse())
			}
		})
	}
}

// TestAdmissionBudgetNeverExceeded hammers the controller from many
// goroutines with mixed lease widths and verifies the core invariant via
// the peak high-water mark.
func TestAdmissionBudgetNeverExceeded(t *testing.T) {
	const budget = 4
	a := NewAdmission(budget, 64, 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				l, err := a.Acquire(context.Background(), 1+(i+it)%budget)
				if err != nil {
					t.Error(err)
					return
				}
				l.Release()
			}
		}(i)
	}
	wg.Wait()
	if a.Peak() > budget {
		t.Fatalf("peak %d leased workers exceeded budget %d", a.Peak(), budget)
	}
	if a.InUse() != 0 {
		t.Fatalf("in use %d after all releases, want 0", a.InUse())
	}
	if a.Granted() != 16*50 {
		t.Fatalf("granted %d, want %d", a.Granted(), 16*50)
	}
}

// TestAdmissionWideLeaseNotStarved: a queued wide request must be granted
// even while narrow requests keep arriving (FIFO head-of-line semantics).
func TestAdmissionWideLeaseNotStarved(t *testing.T) {
	a := NewAdmission(4, 64, 0)
	hold, err := a.Acquire(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	wide := make(chan struct{})
	go func() {
		l, err := a.Acquire(context.Background(), 4)
		if err == nil {
			l.Release()
		}
		close(wide)
	}()
	for a.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	// Narrow competitors pile in behind the wide request.
	for i := 0; i < 4; i++ {
		go func() {
			if l, err := a.Acquire(context.Background(), 1); err == nil {
				l.Release()
			}
		}()
	}
	hold.Release()
	select {
	case <-wide:
	case <-time.After(5 * time.Second):
		t.Fatal("wide lease starved behind narrow arrivals")
	}
}
