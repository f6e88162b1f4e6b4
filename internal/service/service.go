// Package service turns the CROW reproduction into simulation-as-a-service:
// a job subsystem with a bounded priority queue, admission control, a worker
// pool delegating to the memoizing run engine (internal/engine) so
// singleflight memoization becomes a cross-request result cache, per-job
// cancellation and deadlines, streaming progress events, and graceful
// drain. cmd/crowserve exposes it over HTTP/JSON (see Handler).
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdram/crow"
	"crowdram/internal/engine"
	"crowdram/internal/exp"
	"crowdram/internal/obs"
)

// ErrBadRequest wraps submission-validation failures; the HTTP layer maps
// it to 400.
var ErrBadRequest = errors.New("service: bad request")

// ErrNotFound marks lookups of unknown job IDs; the HTTP layer maps it
// to 404.
var ErrNotFound = errors.New("service: no such job")

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Scale is the simulation scale every job runs at (default
	// exp.DefaultScale). One service has one scale, so identical
	// submissions share cache entries.
	Scale exp.Scale
	// Workers is the number of jobs serviced concurrently (default 2).
	Workers int
	// EngineWorkers bounds concurrent simulations inside the shared
	// engine pool (default GOMAXPROCS). One job may fan out into many
	// runs; this is the simulation-level bound.
	EngineWorkers int
	// QueueDepth bounds admitted-but-not-started jobs; a submission
	// beyond it is rejected with ErrQueueFull (default 64).
	QueueDepth int
	// RunTimeout bounds each simulation (engine-level; 0 = none).
	RunTimeout time.Duration
	// JobTimeout is the default per-job deadline (0 = none); a Spec's
	// TimeoutMS overrides it per job. Like TimeoutMS, the deadline is
	// anchored at admission, so it bounds total wall-clock time including
	// queue wait.
	JobTimeout time.Duration
	// Backing is an optional persistent result tier under the engine's
	// in-memory memo (typically a *store.Store[crow.Report]): consulted on
	// memo miss before executing, populated on success. A backing hit
	// surfaces as a "store-hit" run event and in /metrics. Because results
	// are keyed by the canonical run key, a store directory outlives
	// restarts — warm traffic survives them.
	Backing engine.Backing[crow.Report]
	// RetainJobs bounds how many terminal jobs stay queryable: once more
	// than this many jobs are done/failed/cancelled, the oldest are
	// evicted from the job table (GET returns 404). Queued and running
	// jobs are never evicted. 0 selects the default (512); negative means
	// unlimited.
	RetainJobs int
	// RetainFor additionally evicts terminal jobs older than this TTL
	// (measured from their finish time). 0 (the default) disables the TTL.
	RetainFor time.Duration
	// Verify attaches the correctness oracle to every run.
	Verify bool
	// TelemetryInterval, when positive, attaches interval telemetry
	// (internal/obs) to every executed run: per-bank counters snapshot
	// every this many DRAM cycles and stream to the job's SSE clients as
	// "progress" run events. Cache hits replay no telemetry.
	TelemetryInterval int64
	// Run substitutes the simulation executor (default crow.RunContext);
	// tests inject context-aware hooks here.
	Run func(context.Context, crow.Options) (crow.Report, error)
	// Logger receives the service's structured log lines; every
	// job-correlated line carries the job's trace_id. Nil discards them
	// (the embedded-service default).
	Logger *slog.Logger
	// SlowJob, when positive, logs a Warn line (with the job's trace ID
	// and stage breakdown pointers) for any job whose admission-to-done
	// wall time exceeds it. 0 disables the slow-job log.
	SlowJob time.Duration
}

func (c Config) withDefaults() Config {
	if c.Scale.Insts == 0 {
		c.Scale = exp.DefaultScale()
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 512
	}
	if c.Run == nil {
		c.Run = crow.RunContext
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Service owns the job table, the queue, the worker pool, and the shared
// engine pool. Create with New, serve via Handler, stop via Drain.
type Service struct {
	cfg   Config
	pool  *engine.Pool[crow.Report]
	queue *jobQueue

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int64

	busy     atomic.Int64 // jobs being serviced right now
	draining atomic.Bool

	baseCtx    context.Context
	forceStop  context.CancelFunc
	workerDone sync.WaitGroup

	log    *slog.Logger
	http   *histSet // request latency by route pattern
	stages *histSet // span duration by obs.Stage
}

// New builds the service and starts its workers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	var popts []engine.Option[crow.Report]
	if cfg.RunTimeout > 0 {
		popts = append(popts, engine.WithTimeout[crow.Report](cfg.RunTimeout))
	}
	if cfg.Backing != nil {
		popts = append(popts, engine.WithBacking[crow.Report](cfg.Backing))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:       cfg,
		pool:      engine.New(cfg.EngineWorkers, popts...),
		queue:     newJobQueue(cfg.QueueDepth),
		jobs:      make(map[string]*Job),
		baseCtx:   ctx,
		forceStop: cancel,
		log:       cfg.Logger,
		http:      newHistSet[string](),
		stages:    newHistSet(obs.Stages()...),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerDone.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and admits a job. Validation failures wrap
// ErrBadRequest; admission failures are ErrQueueFull or ErrDraining.
func (s *Service) Submit(spec Spec) (*Job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	hasExp, hasOpts := spec.Experiment != "", len(spec.Options) > 0
	if hasExp == hasOpts {
		return nil, fmt.Errorf("%w: exactly one of \"experiment\" and \"options\" must be set", ErrBadRequest)
	}
	var opts crow.Options
	var exps []exp.Experiment
	if hasOpts {
		var err error
		opts, err = crow.DecodeOptions(spec.Options)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	} else {
		var err error
		exps, err = exp.Select([]string{spec.Experiment})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if spec.TimeoutMS < 0 {
		return nil, fmt.Errorf("%w: timeout_ms must be non-negative", ErrBadRequest)
	}

	s.pruneJobs()
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	j := newJob(id, spec, s.seq)
	j.opts, j.exps = opts, exps
	j.trace = obs.NewTraceID()
	s.jobs[id] = j
	s.mu.Unlock()

	if err := s.queue.Push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		return nil, err
	}
	s.log.Info("job admitted",
		"job", id, "trace_id", j.trace,
		"experiment", spec.Experiment, "priority", spec.Priority)
	return j, nil
}

// Get returns a job by ID.
func (s *Service) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Jobs returns every job, newest submission first.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq > out[b].seq })
	return out
}

// Cancel requests termination of a job: a queued job goes terminal
// immediately; a running job's context is cancelled and the worker marks it
// cancelled promptly. Cancelling a terminal job is a no-op. The memo cache
// is never poisoned: the engine evicts the interrupted run's entry, so a
// later identical submission re-executes.
func (s *Service) Cancel(id string) (*Job, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.cancelRequested = true
	cancel := j.cancel
	j.mu.Unlock()
	if s.queue.Remove(j) {
		j.setState(StateCancelled, "cancelled while queued")
		s.pruneJobs()
		return j, nil
	}
	if cancel != nil {
		cancel()
	}
	return j, nil
}

// pruneJobs applies the terminal-job retention policy: terminal jobs beyond
// the RetainJobs count (newest kept) or older than the RetainFor TTL are
// evicted from the job table, so a long-running server's memory stays
// bounded no matter how many jobs it has served. Queued and running jobs are
// never candidates. Runs after every terminal transition and on submission
// (the latter catches TTL expiry during quiet stretches of the job table).
func (s *Service) pruneJobs() {
	retain, ttl := s.cfg.RetainJobs, s.cfg.RetainFor
	if retain < 0 && ttl <= 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Fast path: without a TTL, scan only once the table exceeds the count
	// bound by 25% — the batch eviction then amortizes the O(table) scan to
	// O(1) per job, keeping prune cost off the submit/completion hot path.
	if ttl <= 0 && len(s.jobs) <= retain+retain/4 {
		return
	}
	var terminal []*Job
	for _, j := range s.jobs {
		j.mu.Lock()
		isTerminal, finished := j.state.Terminal(), j.finished
		j.mu.Unlock()
		if !isTerminal {
			continue
		}
		if ttl > 0 && now.Sub(finished) > ttl {
			delete(s.jobs, j.ID)
			continue
		}
		terminal = append(terminal, j)
	}
	if retain >= 0 && len(terminal) > retain {
		// seq is assigned at submission and immutable, so it orders
		// eviction oldest-first without taking job locks again.
		sort.Slice(terminal, func(a, b int) bool { return terminal[a].seq > terminal[b].seq })
		for _, j := range terminal[retain:] {
			delete(s.jobs, j.ID)
		}
	}
}

// Drain stops admission (new submissions fail with ErrDraining), lets
// already-admitted jobs finish, and returns when every worker has exited —
// or cancels the stragglers when ctx expires, then waits for the workers to
// observe that. The crowserve SIGTERM path.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.workerDone.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceStop()
		<-done
		return ctx.Err()
	}
}

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// worker services jobs until the queue closes and drains.
func (s *Service) worker() {
	defer s.workerDone.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.busy.Add(1)
		s.runJob(j)
		s.busy.Add(-1)
	}
}

// jobContext derives the single context a job runs under. A positive
// timeout becomes a deadline anchored at the job's admission time, so the
// timeout bounds total wall-clock time — queue wait included — as the Spec
// documents. Exactly one context is created either way and the caller always
// runs its cancel: the historical version created a WithCancel context and
// then overwrote it with a WithTimeout one for timed jobs, discarding the
// first cancel func and leaking a child registration on the service-lifetime
// base context per timed job.
func jobContext(base context.Context, submitted time.Time, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithDeadline(base, submitted.Add(timeout))
	}
	return context.WithCancel(base)
}

// runJob executes one admitted job end to end.
func (s *Service) runJob(j *Job) {
	defer s.pruneJobs()
	j.mu.Lock()
	if j.state.Terminal() { // cancelled between Pop and here
		j.mu.Unlock()
		return
	}
	timeout := s.cfg.JobTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := jobContext(s.baseCtx, j.submitted, timeout)
	j.cancel = cancel
	alreadyCancelled := j.cancelRequested
	trace, submitted := j.trace, j.submitted
	j.mu.Unlock()
	defer cancel()
	if alreadyCancelled {
		s.log.Info("job cancelled", "job", j.ID, "trace_id", trace, "while", "queued")
		j.setState(StateCancelled, "cancelled while queued")
		return
	}

	picked := time.Now()
	s.recordSpan(j, obs.Span{
		Trace: trace, Stage: obs.StageQueueWait,
		Start: submitted, DurationMS: durMS(picked.Sub(submitted)),
	})

	ropts := []exp.RunnerOption{
		exp.UsePool(s.pool),
		exp.WithContext(ctx),
		exp.RunWith(s.cfg.Run),
	}
	if s.cfg.Verify {
		ropts = append(ropts, exp.Verify())
	}
	if s.cfg.TelemetryInterval > 0 {
		ropts = append(ropts, exp.Telemetry(s.cfg.TelemetryInterval))
	}
	runner := exp.NewRunner(s.cfg.Scale, ropts...)

	// The job's plan keys filter the shared pool's event stream: the job
	// sees progress on its runs even when another job executes them.
	var plan []crow.Options
	if len(j.exps) > 0 {
		plan = exp.PlanAll(runner, j.exps)
	} else {
		plan = []crow.Options{j.opts}
	}
	keys := make(map[string]bool, len(plan))
	for _, o := range plan {
		keys[runner.KeyOf(o)] = true
	}
	remove := s.pool.AddObserver(func(e engine.Event) {
		if keys[e.Key] {
			j.recordRun(e)
			for _, sp := range spansFromEvent(trace, e) {
				s.recordSpan(j, sp)
			}
		}
	})
	defer remove()

	j.setState(StateRunning, "")
	s.log.Info("job started",
		"job", j.ID, "trace_id", trace,
		"queue_wait_ms", durMS(picked.Sub(submitted)), "runs", len(plan))

	// A terminal state is published only after the log lines that describe
	// it are written: a client the API tells "done" finds a log that says so.
	result, err := s.execute(runner, j, plan)
	wall := time.Since(submitted)
	if err != nil {
		j.mu.Lock()
		wasCancelled := j.cancelRequested
		j.mu.Unlock()
		if wasCancelled && errors.Is(err, context.Canceled) {
			s.log.Info("job cancelled", "job", j.ID, "trace_id", trace, "while", "running")
			j.setState(StateCancelled, "cancelled")
			return
		}
		s.log.Warn("job failed", "job", j.ID, "trace_id", trace, "error", err.Error(), "wall_ms", durMS(wall))
		msg := err.Error()
		if errors.Is(err, context.DeadlineExceeded) {
			msg = "deadline exceeded: " + msg
		}
		j.setState(StateFailed, msg)
		return
	}
	s.log.Info("job done", "job", j.ID, "trace_id", trace, "wall_ms", durMS(wall))
	if s.cfg.SlowJob > 0 && wall > s.cfg.SlowJob {
		spans, _ := j.TraceSpans()
		ms := map[obs.Stage]float64{}
		for _, sp := range spans {
			ms[sp.Stage] += sp.DurationMS
		}
		s.log.Warn("slow job",
			"job", j.ID, "trace_id", trace,
			"wall_ms", durMS(wall), "threshold_ms", durMS(s.cfg.SlowJob),
			"queue_wait_ms", ms[obs.StageQueueWait], "execute_ms", ms[obs.StageExecute],
			"trace_url", "/v1/jobs/"+j.ID+"/trace")
	}
	j.mu.Lock()
	j.result = result
	j.mu.Unlock()
	j.setState(StateDone, "")
}

// durMS converts a duration to float milliseconds (the wire/log unit).
func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// recordSpan routes one completed span to the job's event log and the
// service-wide per-stage histograms. A terminal job feeds neither.
func (s *Service) recordSpan(j *Job, sp obs.Span) {
	if j.addSpan(sp) {
		s.stages.observe(string(sp.Stage), sp.DurationMS)
	}
}

// spansFromEvent derives pipeline-stage spans from one engine observer
// event. The engine stamps each event with its emission time and the
// durations of the phases just behind it, so the spans are reconstructed
// back-to-front: an event at T whose phases took a then b yields
// [T-a-b, T-b) and [T-b, T).
func spansFromEvent(trace obs.TraceID, e engine.Event) []obs.Span {
	span := func(stage obs.Stage, end time.Time, d time.Duration) obs.Span {
		return obs.Span{
			Trace: trace, Stage: stage, Name: e.Label,
			Start: end.Add(-d), DurationMS: durMS(d),
		}
	}
	switch e.Type {
	case engine.EventCacheHit:
		// Lookup covers Do entry to result availability (including any
		// wait on an in-flight execution).
		return []obs.Span{span(obs.StageMemoLookup, e.Time, e.Lookup)}
	case engine.EventQueued, engine.EventStoreHit:
		// Do entry → memo check (Lookup) → backing read (StoreRead, zero
		// without a backing tier) → emission.
		out := []obs.Span{span(obs.StageMemoLookup, e.Time.Add(-e.StoreRead), e.Lookup)}
		if e.StoreRead > 0 {
			out = append(out, span(obs.StageStoreRead, e.Time, e.StoreRead))
		}
		return out
	case engine.EventFinished:
		// fn return (Duration behind it) → write-behind Put (StoreWrite)
		// → emission.
		out := []obs.Span{span(obs.StageExecute, e.Time.Add(-e.StoreWrite), e.Duration)}
		if e.StoreWrite > 0 {
			out = append(out, span(obs.StageStoreWrite, e.Time, e.StoreWrite))
		}
		return out
	}
	return nil
}

// execute runs the job's plan and assembles its result.
func (s *Service) execute(runner *exp.Runner, j *Job, plan []crow.Options) (*Result, error) {
	if len(j.exps) == 0 {
		rep, err := runner.Run(j.opts)
		if err != nil {
			return nil, err
		}
		return &Result{Report: &rep}, nil
	}
	if err := runner.Execute(plan); err != nil {
		return nil, err
	}
	tables := make([]exp.Table, 0, len(j.exps))
	for _, e := range j.exps {
		t, err := e.Table(runner)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		tables = append(tables, t)
	}
	return &Result{Tables: tables}, nil
}
