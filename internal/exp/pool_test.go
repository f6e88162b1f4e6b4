package exp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"crowdram/crow"
	"crowdram/internal/engine"
)

// TestSharedPoolCrossRunnerCache proves the crowserve cache model: two
// Runners sharing one engine pool memoize across each other — the second
// Runner's identical run is a cache hit, not a fresh execution.
func TestSharedPoolCrossRunnerCache(t *testing.T) {
	pool := engine.New[crow.Report](2)
	var execs atomic.Int64
	hook := func(ctx context.Context, o crow.Options) (crow.Report, error) {
		execs.Add(1)
		return crow.Report{Mechanism: o.Mechanism, IPC: []float64{1}}, nil
	}
	scale := QuickScale()
	o := crow.Options{Mechanism: crow.Cache, Workloads: []string{"mcf"}}

	r1 := NewRunner(scale, UsePool(pool), RunWith(hook))
	r2 := NewRunner(scale, UsePool(pool), RunWith(hook))
	rep1, err := r1.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := r2.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("two runners sharing a pool must execute once, got %d", n)
	}
	if rep1.Mechanism != rep2.Mechanism || rep1.IPC[0] != rep2.IPC[0] {
		t.Errorf("shared-pool results differ: %+v vs %+v", rep1, rep2)
	}
	s := pool.Snapshot()
	if s.Executions != 1 || s.CacheHits != 1 {
		t.Errorf("pool snapshot = %+v, want 1 execution + 1 cache hit", s)
	}
}

// TestKeyOfMatchesPoolKeys proves KeyOf is the key the pool actually caches
// under, and that runners at the same scale agree on it.
func TestKeyOfMatchesPoolKeys(t *testing.T) {
	pool := engine.New[crow.Report](1)
	hook := func(context.Context, crow.Options) (crow.Report, error) {
		return crow.Report{IPC: []float64{1}}, nil
	}
	r := NewRunner(QuickScale(), UsePool(pool), RunWith(hook))
	o := crow.Options{Mechanism: crow.Ref, Workloads: []string{"lbm"}}
	if _, err := r.Run(o); err != nil {
		t.Fatal(err)
	}
	rerun := func(context.Context) (crow.Report, error) {
		return crow.Report{}, errors.New("executed again")
	}
	if _, err := pool.Do(context.Background(), r.KeyOf(o), "", rerun); err != nil {
		t.Errorf("KeyOf must name the pool's cache entry for the run: %v", err)
	}
	other := NewRunner(QuickScale(), UsePool(pool), RunWith(hook))
	if r.KeyOf(o) != other.KeyOf(o) {
		t.Error("runners at the same scale must agree on keys")
	}
	if r.KeyOf(o) == NewRunner(DefaultScale(), RunWith(hook)).KeyOf(o) {
		t.Error("runners at different scales must not collide on keys")
	}
}

// TestRunnerCancellationDoesNotPoisonSharedCache: a run cancelled mid-flight
// fails with the context error and is evicted, so a later request on the
// same shared pool re-executes and succeeds — the DELETE /v1/jobs contract.
func TestRunnerCancellationDoesNotPoisonSharedCache(t *testing.T) {
	pool := engine.New[crow.Report](1)
	o := crow.Options{Mechanism: crow.Cache, Workloads: []string{"mcf"}}

	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	blocking := NewRunner(QuickScale(), UsePool(pool), WithContext(ctx),
		RunWith(func(ctx context.Context, _ crow.Options) (crow.Report, error) {
			close(entered)
			<-ctx.Done() // context-aware hook: stops promptly on cancel
			return crow.Report{}, ctx.Err()
		}))
	done := make(chan error, 1)
	go func() {
		_, err := blocking.Run(o)
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	var execs atomic.Int64
	retry := NewRunner(QuickScale(), UsePool(pool),
		RunWith(func(context.Context, crow.Options) (crow.Report, error) {
			execs.Add(1)
			return crow.Report{IPC: []float64{2}}, nil
		}))
	rep, err := retry.Run(o)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if execs.Load() != 1 || rep.IPC[0] != 2 {
		t.Errorf("retry must re-execute fresh (execs=%d, rep=%+v)", execs.Load(), rep)
	}
	if s := pool.Snapshot(); s.Failures != 1 {
		t.Errorf("cancelled run must count as a failure: %+v", s)
	}
}
