package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memoized returns the pool's completed, successful result for key, if any.
func memoized[V any](p *Pool[V], key string) (V, bool) {
	p.mu.Lock()
	e, ok := p.entries[key]
	p.mu.Unlock()
	var zero V
	if !ok {
		return zero, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return zero, false
		}
		return e.val, true
	default:
		return zero, false
	}
}

func TestMemoizesAndCoalesces(t *testing.T) {
	p := New[int](4)
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Do(context.Background(), "k", "job", func(context.Context) (int, error) {
				execs.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Errorf("32 coalesced calls must execute once, got %d", n)
	}
	if v, ok := memoized(p, "k"); !ok || v != 42 {
		t.Errorf("Get = %d, %v", v, ok)
	}
	if _, ok := memoized(p, "absent"); ok {
		t.Error("Get must miss on unknown keys")
	}
}

func TestConcurrencyBound(t *testing.T) {
	const workers = 3
	p := New[int](workers)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		key := fmt.Sprint(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), key, key, func(context.Context) (int, error) {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return 0, nil
			})
		}()
	}
	wg.Wait()
	if pk := peak.Load(); pk > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", pk, workers)
	}
	if pk := peak.Load(); pk < 2 {
		t.Errorf("pool must actually run jobs concurrently (peak %d)", pk)
	}
}

func TestErrorsPropagateAndAreNotCached(t *testing.T) {
	p := New[int](1)
	boom := errors.New("boom")
	calls := 0
	_, err := p.Do(context.Background(), "k", "k", func(context.Context) (int, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// A failed job must not poison the cache: the next Do retries.
	v, err := p.Do(context.Background(), "k", "k", func(context.Context) (int, error) {
		calls++
		return 7, nil
	})
	if err != nil || v != 7 || calls != 2 {
		t.Errorf("retry after failure: v=%d err=%v calls=%d", v, err, calls)
	}
}

func TestCancellation(t *testing.T) {
	p := New[int](1)
	block := make(chan struct{})
	go p.Do(context.Background(), "hog", "hog", func(context.Context) (int, error) {
		<-block
		return 0, nil
	})
	for p.pendingCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, "waiting", "waiting", func(context.Context) (int, error) { return 0, nil })
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Do must return promptly")
	}
	close(block)
}

func TestPerJobTimeout(t *testing.T) {
	p := New[int](1, WithTimeout[int](5*time.Millisecond))
	_, err := p.Do(context.Background(), "slow", "slow", func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Second):
			return 1, nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestObserverEventSequence(t *testing.T) {
	var events []Event
	p := New(1, WithObserver[int](func(e Event) { events = append(events, e) }))
	p.Do(context.Background(), "k", "label", func(context.Context) (int, error) { return 1, nil })
	p.Do(context.Background(), "k", "label", func(context.Context) (int, error) { return 1, nil })
	want := []EventType{EventQueued, EventStarted, EventFinished, EventCacheHit}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, e := range events {
		if e.Type != want[i] {
			t.Errorf("event %d = %v, want %v", i, e.Type, want[i])
		}
		if e.Key != "k" || e.Label != "label" {
			t.Errorf("event %d carries key %q label %q", i, e.Key, e.Label)
		}
	}
	if events[2].Duration <= 0 {
		t.Error("finished event must carry a positive duration")
	}
}

func TestSnapshotCounters(t *testing.T) {
	p := New[int](2)
	if s := p.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("fresh pool snapshot = %+v, want zero", s)
	}

	// One execution, one completed-entry cache hit.
	p.Do(context.Background(), "a", "a", func(context.Context) (int, error) { return 1, nil })
	p.Do(context.Background(), "a", "a", func(context.Context) (int, error) { return 1, nil })
	// One failure (evicted, so Entries stays 1).
	p.Do(context.Background(), "b", "b", func(context.Context) (int, error) { return 0, errors.New("x") })

	s := p.Snapshot()
	if s.Executions != 2 || s.CacheHits != 1 || s.Failures != 1 {
		t.Errorf("snapshot = %+v, want 2 executions, 1 hit, 1 failure", s)
	}
	if s.Entries != 1 {
		t.Errorf("failed entry must be evicted: entries = %d, want 1", s.Entries)
	}
	if s.Queued != 0 || s.Inflight != 0 {
		t.Errorf("idle pool must report zero gauges, got %+v", s)
	}
	if got := s.HitRatio(); got != 1.0/3.0 {
		t.Errorf("HitRatio = %v, want 1/3", got)
	}
	if (Snapshot{}).HitRatio() != 0 {
		t.Error("idle HitRatio must be 0")
	}
}

func TestSnapshotGaugesMidFlight(t *testing.T) {
	p := New[int](1)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.Do(context.Background(), "run", "run", func(context.Context) (int, error) {
			close(started)
			<-block
			return 1, nil
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		p.Do(context.Background(), "wait", "wait", func(context.Context) (int, error) { return 2, nil })
	}()
	// Wait until the second job is queued behind the single worker slot.
	for {
		s := p.Snapshot()
		if s.Queued == 1 && s.Inflight == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if s := p.Snapshot(); s.Queued != 0 || s.Inflight != 0 || s.Executions != 2 {
		t.Errorf("drained snapshot = %+v", s)
	}
}

func TestAddRemoveObserver(t *testing.T) {
	p := New[int](1)
	var a, b []Event
	removeA := p.AddObserver(func(e Event) { a = append(a, e) })
	removeB := p.AddObserver(func(e Event) { b = append(b, e) })
	p.Do(context.Background(), "k", "k", func(context.Context) (int, error) { return 1, nil })
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("both observers must see queued/started/finished: %d, %d", len(a), len(b))
	}
	removeB()
	p.Do(context.Background(), "k", "k", func(context.Context) (int, error) { return 1, nil })
	if len(a) != 4 {
		t.Errorf("remaining observer must see the cache hit: %d events", len(a))
	}
	if len(b) != 3 {
		t.Errorf("removed observer must see nothing new: %d events", len(b))
	}
	removeA()
	removeA() // double-remove is harmless
}

func TestAllRunsPlan(t *testing.T) {
	p := New[int](4)
	var execs atomic.Int64
	// 12 items over 4 distinct keys: each key runs once.
	items := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	err := All(context.Background(), p, items, func(i int) (string, string, func(context.Context) (int, error)) {
		key := fmt.Sprint(i)
		return key, key, func(context.Context) (int, error) {
			execs.Add(1)
			return i * i, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 4 {
		t.Errorf("plan with 4 distinct keys must run 4 jobs, ran %d", n)
	}
	if v, ok := memoized(p, "3"); !ok || v != 9 {
		t.Errorf("Get(3) = %d, %v", v, ok)
	}
	wantErr := errors.New("bad")
	err = All(context.Background(), p, []int{9}, func(i int) (string, string, func(context.Context) (int, error)) {
		return "err", "err", func(context.Context) (int, error) { return 0, wantErr }
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("All must surface job errors, got %v", err)
	}
}
