// Package engine is a bounded worker pool with deterministic memoization:
// jobs are identified by a canonical key, executed at most once, and their
// results are cached and shared between all callers — concurrent requests
// for the same key coalesce onto one execution. The pool supports
// context.Context cancellation, per-job timeouts, and a structured observer
// stream (queued, started, finished, cache-hit) for cross-layer progress
// reporting.
//
// The pool is value-generic so higher layers (internal/exp, the CLIs) can
// memoize their own result types; it knows nothing about simulations.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// EventType classifies observer events.
type EventType int

// Observer event types, in lifecycle order.
const (
	// EventQueued fires when a fresh job enters the pool and is waiting
	// for a worker slot.
	EventQueued EventType = iota
	// EventStarted fires when a job acquires a worker slot and begins
	// executing.
	EventStarted
	// EventFinished fires when a job's function returns (Err carries its
	// failure, if any); Duration is the execution time.
	EventFinished
	// EventCacheHit fires when a request is satisfied by a completed (or
	// in-flight, once it completes) job with the same key.
	EventCacheHit
	// EventProgress fires when a running job reports mid-execution progress
	// (Progress carries the payload — e.g. an obs.IntervalSnapshot). Only
	// executing jobs emit it; cache hits replay nothing.
	EventProgress
	// EventStoreHit fires when a request misses the in-memory memo but is
	// satisfied by the pool's Backing tier (a persistent result store):
	// nothing queues or executes, and the value is memoized for later
	// callers.
	EventStoreHit
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventQueued:
		return "queued"
	case EventStarted:
		return "started"
	case EventFinished:
		return "finished"
	case EventCacheHit:
		return "cache-hit"
	case EventProgress:
		return "progress"
	case EventStoreHit:
		return "store-hit"
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// Event is one structured progress record.
type Event struct {
	Type  EventType
	Key   string
	Label string // human-readable job description
	// Time is when the event fired (stamped at emission). Observers that
	// rebuild a job's timeline — the crowserve span recorder — anchor their
	// derived intervals on it.
	Time time.Time
	// Duration is the job's execution time (EventFinished only).
	Duration time.Duration
	// Err is the job's failure (EventFinished only).
	Err error
	// Pending is the number of jobs queued or running when the event
	// fired, for "N left" progress displays.
	Pending int
	// Progress is the mid-execution payload (EventProgress only).
	Progress any
	// Lookup is the memo-consult cost: for EventCacheHit, Do-entry to
	// result availability (including the wait on an in-flight execution);
	// for EventQueued/EventStoreHit, the time spent deciding the request
	// was a memo miss.
	Lookup time.Duration
	// StoreRead is the Backing.Get duration (EventStoreHit and, with a
	// backing tier attached, EventQueued — the read that missed).
	StoreRead time.Duration
	// StoreWrite is the write-behind Backing.Put duration (EventFinished
	// after a successful execution with a backing tier).
	StoreWrite time.Duration
}

// Observer receives events. Implementations need no internal locking: the
// pool serializes event delivery.
type Observer func(Event)

// Snapshot is a point-in-time view of the pool's gauges and counters: the
// single source of truth behind the crowserve /metrics endpoint, progress
// dashboards, and tests — no test-only introspection required.
type Snapshot struct {
	// Queued is the number of jobs waiting for a worker slot.
	Queued int `json:"queued"`
	// Inflight is the number of jobs currently executing.
	Inflight int `json:"inflight"`
	// Entries is the number of memoized (completed or in-flight) cache
	// entries.
	Entries int `json:"entries"`
	// Executions counts job functions actually invoked (cache misses).
	Executions int64 `json:"executions"`
	// CacheHits counts requests satisfied by a memoized or coalesced
	// in-flight execution instead of a fresh one.
	CacheHits int64 `json:"cache_hits"`
	// StoreHits counts requests that missed the in-memory memo but were
	// satisfied by the Backing tier without executing.
	StoreHits int64 `json:"store_hits"`
	// Failures counts executions that returned an error (these entries
	// are evicted, so a later request retries).
	Failures int64 `json:"failures"`
	// QueuedTotal counts jobs that ever entered the queue (monotonic, so
	// rate() over a scrape works; Queued above is the instantaneous gauge).
	QueuedTotal int64 `json:"queued_total"`
	// StartedTotal counts jobs that acquired a worker slot and began
	// executing.
	StartedTotal int64 `json:"started_total"`
	// DoneTotal counts executions that completed successfully
	// (StartedTotal - DoneTotal - Failures = currently executing).
	DoneTotal int64 `json:"done_total"`
}

// HitRatio returns (CacheHits + StoreHits) / (CacheHits + StoreHits +
// Executions), the fraction of requests served without running a job
// function (0 when idle).
func (s Snapshot) HitRatio() float64 {
	hits := s.CacheHits + s.StoreHits
	total := hits + s.Executions
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Backing is a secondary result tier under the in-memory memo — typically a
// persistent, content-addressed store (internal/store). On a memo miss the
// pool consults Get before queueing the job for execution, and populates Put
// after a successful execution. Implementations must be safe for concurrent
// use; the pool holds no locks across calls. Results must be correct forever
// for their key (true for deterministic, canonically-keyed simulations) —
// the pool never invalidates a backing entry.
type Backing[V any] interface {
	// Get returns the stored value for key, if present and intact.
	Get(key string) (V, bool)
	// Put persists a successful result. Failures must be absorbed (they
	// cost durability, not correctness), so Put returns nothing.
	Put(key string, val V)
}

// Pool is a memoizing bounded worker pool. The zero value is not usable;
// call New.
type Pool[V any] struct {
	workers int
	timeout time.Duration
	backing Backing[V]

	slots chan struct{}

	obsMu  sync.Mutex
	obs    map[int]Observer
	obsSeq int

	mu      sync.Mutex
	entries map[string]*entry[V]
	pending int

	queued     int
	inflight   int
	executions int64
	cacheHits  int64
	storeHits  int64
	failures   int64

	queuedTotal  int64
	startedTotal int64
	doneTotal    int64
}

// entry is one memoized job: done closes when the result is available.
// abandoned marks an entry whose owner gave up before executing (cancelled
// while waiting for a worker slot); waiters observing it retry instead of
// inheriting the owner's cancellation.
type entry[V any] struct {
	done      chan struct{}
	val       V
	err       error
	abandoned bool
}

// Option configures a Pool.
type Option[V any] func(*Pool[V])

// WithTimeout bounds each job's execution time; a job whose context expires
// fails with context.DeadlineExceeded (the job function must honor its
// context). Zero means no per-job timeout.
func WithTimeout[V any](d time.Duration) Option[V] {
	return func(p *Pool[V]) { p.timeout = d }
}

// WithObserver attaches a structured progress observer.
func WithObserver[V any](obs Observer) Option[V] {
	return func(p *Pool[V]) { p.AddObserver(obs) }
}

// WithBacking attaches a secondary result tier: on a memo miss the pool
// reads through to it before executing, and writes successful results back
// to it. Singleflight is preserved around the backing read — concurrent cold
// requests for one key still cost one Get and at most one execution.
func WithBacking[V any](b Backing[V]) Option[V] {
	return func(p *Pool[V]) { p.backing = b }
}

// New builds a pool running at most workers jobs concurrently.
// workers <= 0 selects GOMAXPROCS.
func New[V any](workers int, opts ...Option[V]) *Pool[V] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool[V]{
		workers: workers,
		slots:   make(chan struct{}, workers),
		entries: make(map[string]*entry[V]),
		obs:     make(map[int]Observer),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Workers returns the concurrency bound.
func (p *Pool[V]) Workers() int { return p.workers }

// AddObserver subscribes a new observer to the pool's event stream and
// returns a function that unsubscribes it. Observers may come and go while
// jobs run: the serving layer attaches one per streaming client. Like
// WithObserver, delivery is serialized, so observers need no locking.
func (p *Pool[V]) AddObserver(obs Observer) (remove func()) {
	p.obsMu.Lock()
	id := p.obsSeq
	p.obsSeq++
	p.obs[id] = obs
	p.obsMu.Unlock()
	return func() {
		p.obsMu.Lock()
		delete(p.obs, id)
		p.obsMu.Unlock()
	}
}

// Snapshot returns the pool's current gauges (queued, inflight, entries) and
// lifetime counters (executions, cache hits, failures).
func (p *Pool[V]) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Snapshot{
		Queued:       p.queued,
		Inflight:     p.inflight,
		Entries:      len(p.entries),
		Executions:   p.executions,
		CacheHits:    p.cacheHits,
		StoreHits:    p.storeHits,
		Failures:     p.failures,
		QueuedTotal:  p.queuedTotal,
		StartedTotal: p.startedTotal,
		DoneTotal:    p.doneTotal,
	}
}

// emit delivers an event under a lock so observers need none of their own.
func (p *Pool[V]) emit(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	p.obsMu.Lock()
	defer p.obsMu.Unlock()
	for _, obs := range p.obs {
		obs(e)
	}
}

func (p *Pool[V]) pendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Do executes fn for key, or returns the memoized result of a previous or
// in-flight execution with the same key. Concurrent calls with equal keys
// coalesce: exactly one runs fn, the rest wait for its result. Execution is
// bounded by the pool's worker count; ctx cancels waiting and (for
// context-honoring fns) execution. With a Backing tier attached, a memo miss
// reads through to it before executing and a successful execution writes
// back to it.
func (p *Pool[V]) Do(ctx context.Context, key, label string, fn func(context.Context) (V, error)) (V, error) {
	t0 := time.Now()
	for {
		p.mu.Lock()
		if e, ok := p.entries[key]; ok {
			p.mu.Unlock()
			select {
			case <-e.done:
				if e.abandoned {
					// The owner was cancelled before executing; its
					// cancellation is not ours. Retry: the entry is
					// already forgotten, so the next pass either
					// becomes the new owner or coalesces onto one.
					continue
				}
				p.mu.Lock()
				p.cacheHits++
				p.mu.Unlock()
				p.emit(Event{Type: EventCacheHit, Key: key, Label: label, Pending: p.pendingCount(), Lookup: time.Since(t0)})
				return e.val, e.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		e := &entry[V]{done: make(chan struct{})}
		p.entries[key] = e
		p.pending++
		p.queued++
		p.queuedTotal++
		p.mu.Unlock()
		return p.execute(ctx, key, label, e, time.Since(t0), fn)
	}
}

// execute owns a freshly-created entry: consult the backing tier, then run
// fn under a worker slot and publish the result.
func (p *Pool[V]) execute(ctx context.Context, key, label string, e *entry[V], lookup time.Duration, fn func(context.Context) (V, error)) (V, error) {
	// Read-through: a backing hit completes the entry without queueing or
	// executing. Coalesced callers arriving during the read wait on e.done
	// as usual, so one Get serves them all.
	var readDur time.Duration
	if p.backing != nil {
		g0 := time.Now()
		v, ok := p.backing.Get(key)
		readDur = time.Since(g0)
		if ok {
			p.mu.Lock()
			e.val = v
			p.pending--
			p.queued--
			p.storeHits++
			p.mu.Unlock()
			close(e.done)
			p.emit(Event{Type: EventStoreHit, Key: key, Label: label, Pending: p.pendingCount(), Lookup: lookup, StoreRead: readDur})
			return v, nil
		}
	}

	p.emit(Event{Type: EventQueued, Key: key, Label: label, Pending: p.pendingCount(), Lookup: lookup, StoreRead: readDur})

	// Acquire a worker slot (or give up on cancellation: forget the
	// entry so a later call can retry). An already-expired context must
	// never execute — with a free slot, select would pick a ready case at
	// random — so it is checked first.
	if err := ctx.Err(); err != nil {
		p.abandon(key, e, err)
		var zero V
		return zero, err
	}
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.abandon(key, e, ctx.Err())
		var zero V
		return zero, ctx.Err()
	}

	p.mu.Lock()
	p.queued--
	p.inflight++
	p.executions++
	p.startedTotal++
	p.mu.Unlock()

	p.emit(Event{Type: EventStarted, Key: key, Label: label, Pending: p.pendingCount()})
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if p.timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, p.timeout)
	}
	start := time.Now()
	val, err := fn(runCtx)
	dur := time.Since(start)
	cancel()
	<-p.slots

	p.mu.Lock()
	e.val, e.err = val, err
	p.pending--
	p.inflight--
	if err != nil {
		// Failed jobs are not memoized as successes, but current
		// waiters still receive the error; a later Do retries.
		p.failures++
		delete(p.entries, key)
	} else {
		p.doneTotal++
	}
	p.mu.Unlock()
	close(e.done)

	// Write-behind: persist after the result is published, so coalesced
	// waiters never wait on the disk. The executing caller absorbs the
	// write, which keeps "job done" ⇒ "result durable" for its submitter.
	var putDur time.Duration
	if err == nil && p.backing != nil {
		w0 := time.Now()
		p.backing.Put(key, val)
		putDur = time.Since(w0)
	}

	p.emit(Event{Type: EventFinished, Key: key, Label: label, Duration: dur, Err: err, Pending: p.pendingCount(), StoreWrite: putDur})
	return val, err
}

// Progress emits an EventProgress for a running job. Job functions (or the
// observability plumbing wrapped around them) call it to stream
// mid-execution state — interval telemetry, phase markers — to the pool's
// observers without touching the memoized result.
func (p *Pool[V]) Progress(key, label string, payload any) {
	p.emit(Event{Type: EventProgress, Key: key, Label: label, Progress: payload, Pending: p.pendingCount()})
}

// abandon removes a never-started entry and wakes any coalesced waiters.
// The waiters' own contexts may be perfectly live, so the entry is marked
// abandoned rather than completed with the owner's cancellation error: Do's
// wait path detects the mark and retries, and the first retrier becomes the
// new owner.
func (p *Pool[V]) abandon(key string, e *entry[V], err error) {
	p.mu.Lock()
	e.err = err
	e.abandoned = true
	p.pending--
	p.queued--
	delete(p.entries, key)
	p.mu.Unlock()
	close(e.done)
}

// All runs one Do per item concurrently (each bounded by the worker pool)
// and waits for all of them; it returns the first error encountered. It is
// the pool's "execute a declared plan" entry point: items sharing a key run
// once.
func All[V, T any](ctx context.Context, p *Pool[V], items []T,
	job func(T) (key, label string, fn func(context.Context) (V, error))) error {
	var wg sync.WaitGroup
	errc := make(chan error, len(items))
	for _, it := range items {
		key, label, fn := job(it)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Do(ctx, key, label, fn); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	return <-errc
}
