package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hog occupies every worker slot of a 1-worker pool and returns a release
// function plus a wait-for-started barrier.
func hogSlot(t *testing.T, p *Pool[int]) (release func()) {
	t.Helper()
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), "hog", "hog", func(context.Context) (int, error) {
		close(started)
		<-block
		return 0, nil
	})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("hog never started")
	}
	return func() { close(block) }
}

// waitQueued polls until n jobs are waiting for a worker slot.
func waitQueued(t *testing.T, p *Pool[int], n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Snapshot().Queued == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d queued jobs (snapshot %+v)", n, p.Snapshot())
}

// TestAbandonedWaiterRetries is the regression test for coalesced-waiter
// poisoning: caller A owns the entry for "k" but is cancelled while waiting
// for a worker slot; caller B, coalesced onto A's entry with a live context,
// must not inherit A's context.Canceled — it retries, becomes the new owner,
// and gets a real result.
func TestAbandonedWaiterRetries(t *testing.T) {
	p := New[int](1)
	release := hogSlot(t, p)

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := p.Do(ctxA, "k", "k", func(context.Context) (int, error) { return 1, nil })
		aDone <- err
	}()
	waitQueued(t, p, 1)

	var execs atomic.Int64
	bDone := make(chan struct{})
	var bVal int
	var bErr error
	go func() {
		defer close(bDone)
		bVal, bErr = p.Do(context.Background(), "k", "k", func(context.Context) (int, error) {
			execs.Add(1)
			return 42, nil
		})
	}()
	// Let B coalesce onto A's in-flight entry before A abandons it.
	time.Sleep(20 * time.Millisecond)

	cancelA()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	release()

	select {
	case <-bDone:
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced waiter never completed after owner abandonment")
	}
	if bErr != nil || bVal != 42 {
		t.Fatalf("waiter after abandonment = %d, %v; want 42, nil", bVal, bErr)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("retried waiter must execute exactly once, got %d", n)
	}
}

// TestAbandonZeroWaiters: a cancelled slot-waiter with nobody coalesced
// leaves no entry behind, and a later request executes fresh.
func TestAbandonZeroWaiters(t *testing.T) {
	p := New[int](1)
	release := hogSlot(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, "k", "k", func(context.Context) (int, error) { return 1, nil })
		done <- err
	}()
	waitQueued(t, p, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	release()

	if _, ok := memoized(p, "k"); ok {
		t.Error("abandoned entry must be forgotten")
	}
	v, err := p.Do(context.Background(), "k", "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("fresh Do after abandonment = %d, %v", v, err)
	}
	if s := p.Snapshot(); s.Queued != 0 || s.Inflight != 0 {
		t.Errorf("gauges after abandonment = %+v", s)
	}
}

// TestAbandonManyWaiters: many coalesced waiters survive the owner's
// abandonment; exactly one of them re-executes and every one gets the value.
func TestAbandonManyWaiters(t *testing.T) {
	p := New[int](1)
	release := hogSlot(t, p)

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := p.Do(ctxA, "k", "k", func(context.Context) (int, error) { return 1, nil })
		aDone <- err
	}()
	waitQueued(t, p, 1)

	const waiters = 8
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Do(context.Background(), "k", "k", func(context.Context) (int, error) {
				execs.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("waiter = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters coalesce
	cancelA()
	<-aDone
	release()
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Errorf("abandonment recovery must execute once, got %d", n)
	}
}

// TestFailureEvictionThenRetry: a failed execution delivers its error to the
// waiters coalesced on it (failure is a result, unlike abandonment), evicts
// the entry, and the next request re-executes.
func TestFailureEvictionThenRetry(t *testing.T) {
	p := New[int](2)
	boom := errors.New("boom")
	gate := make(chan struct{})
	started := make(chan struct{})
	errs := make(chan error, 4)
	go func() {
		_, err := p.Do(context.Background(), "k", "k", func(context.Context) (int, error) {
			close(started)
			<-gate
			return 0, boom
		})
		errs <- err
	}()
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Do(context.Background(), "k", "k", func(context.Context) (int, error) {
				t.Error("coalesced waiter must not re-execute a failing in-flight job")
				return 0, nil
			})
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	for i := 0; i < 4; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("waiter err = %v, want boom", err)
		}
	}
	v, err := p.Do(context.Background(), "k", "k", func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Errorf("retry after failure eviction = %d, %v", v, err)
	}
	if s := p.Snapshot(); s.Failures != 1 || s.Executions != 2 {
		t.Errorf("snapshot = %+v, want 1 failure, 2 executions", s)
	}
}
