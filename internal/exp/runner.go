// Package exp regenerates every table and figure of the paper's evaluation
// (see the per-experiment index in DESIGN.md). Analytic experiments
// (Table 1, Figures 5–7, the Section 4.2.1/6 overhead numbers) come from the
// circuit and retention models; simulation experiments (Figures 8–14) run
// the full system at a configurable scale.
//
// Each simulation experiment states its runs once, in the reduce function
// that requests them (Fig8, Fig9, ...) and assembles a table from the
// reports. The plan — the list of crow.Options to execute up front,
// including the alone-run baselines behind weighted speedups — is recorded,
// not declared: PlanAll calls the same reduce functions on a Runner whose
// Run lists each request and answers with a placeholder report. Plans
// execute on a bounded worker pool (internal/engine) with deterministic
// memoization, so independent runs parallelize across cores while
// experiments sharing runs (e.g. Figures 8 and 10) still pay for them once
// — and the reduce phase, which asks for every run again, produces
// byte-identical output at any worker count.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"crowdram/crow"
	"crowdram/internal/engine"
	"crowdram/internal/metrics"
	"crowdram/internal/obs"
	"crowdram/internal/store"
	"crowdram/internal/trace"
)

// ReportSchema names the store schema under which runner results persist. A
// bump invalidates (as a miss, not an error) every result saved under the
// old schema.
const ReportSchema = "crow.Report/v4"

// OpenStore opens (or creates) the persistent result store that crowserve
// and crowbench mount via their -store flag. maxBytes > 0 caps the on-disk
// footprint (LRU eviction); 0 means unbounded.
func OpenStore(dir string, maxBytes int64) (*store.Store[crow.Report], error) {
	var opts []store.Option
	if maxBytes > 0 {
		opts = append(opts, store.MaxBytes(maxBytes))
	}
	return store.Open[crow.Report](dir, ReportSchema, opts...)
}

// Scale controls simulation effort. The paper simulates 200 M instructions
// per core over 20 mixes per group; the defaults here are sized to finish in
// minutes while preserving each figure's shape.
type Scale struct {
	Insts         int64
	Warmup        int64
	MixesPerGroup int
	// SingleApps optionally restricts single-core experiments to a
	// subset of the suite (nil = every app).
	SingleApps []string
	Seed       int64
}

// Validate reports the first thing about s that no experiment can run at,
// naming the command-line flag that sets it. The CLIs call it before they
// build anything: past this point a bad scale is a panic (an unknown app in
// singleApps, a negative mix count in trace.MakeMixes) or a table of zeros.
func (s Scale) Validate() error {
	switch {
	case s.Insts < 1:
		return fmt.Errorf("exp: -insts %d: need at least 1 measured instruction", s.Insts)
	case s.Warmup < 0:
		return fmt.Errorf("exp: warm-up of %d instructions is negative", s.Warmup)
	case s.MixesPerGroup < 1:
		return fmt.Errorf("exp: -mixes %d: need at least 1 mix per workload group", s.MixesPerGroup)
	}
	for _, name := range s.SingleApps {
		if _, err := trace.ByName(name); err != nil {
			return fmt.Errorf("exp: -apps: %w", err)
		}
	}
	return nil
}

// DefaultScale is the crowbench default.
func DefaultScale() Scale {
	return Scale{Insts: 300_000, Warmup: 30_000, MixesPerGroup: 3, Seed: 1}
}

// QuickScale is the scale used by the repository's testing.B benchmarks.
func QuickScale() Scale {
	return Scale{
		Insts: 60_000, Warmup: 6_000, MixesPerGroup: 1, Seed: 1,
		SingleApps: []string{"mcf", "lbm", "soplex", "omnetpp", "zeusmp", "gcc"},
	}
}

// Table is a renderable result grid.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func pct(v float64) string  { return fmt.Sprintf("%+.1f%%", 100*v) }
func pct2(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func dec1(v float64) string { return fmt.Sprintf("%.1f", v) }
func dec2(v float64) string { return fmt.Sprintf("%.2f", v) }
func dec3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Runner executes and memoizes simulation runs on a bounded worker pool.
type Runner struct {
	Scale     Scale
	pool      *engine.Pool[crow.Report]
	ctx       context.Context
	verify    bool
	telemetry int64
	run       func(context.Context, crow.Options) (crow.Report, error)

	// recording makes Run list its requests in recorded instead of
	// simulating them; PlanAll derives plans on such a Runner.
	recording bool
	recorded  []crow.Options
}

// RunnerOption configures a Runner.
type RunnerOption func(*runnerConfig)

type runnerConfig struct {
	workers   int
	observer  engine.Observer
	ctx       context.Context
	verify    bool
	telemetry int64
	pool      *engine.Pool[crow.Report]
	run       func(context.Context, crow.Options) (crow.Report, error)
}

// Workers sets how many simulations may execute concurrently (the
// crowbench -j flag). Default 1: plans execute sequentially, in request
// order.
func Workers(n int) RunnerOption { return func(c *runnerConfig) { c.workers = n } }

// Observe attaches a structured per-run event observer (queued, started,
// finished, cache-hit) for live progress output.
func Observe(obs engine.Observer) RunnerOption { return func(c *runnerConfig) { c.observer = obs } }

// WithContext makes every run answer to ctx, so canceling it interrupts
// in-flight simulations and aborts the sweep.
func WithContext(ctx context.Context) RunnerOption { return func(c *runnerConfig) { c.ctx = ctx } }

// Verify attaches the correctness oracle (crow.Options.Verify) to every
// simulation the runner executes. A run with violations fails with an error
// describing them, which surfaces through the engine observer's finished
// events and aborts the sweep like any other run failure.
func Verify() RunnerOption { return func(c *runnerConfig) { c.verify = true } }

// Telemetry attaches interval telemetry (internal/obs) to every simulation
// the runner executes: per-bank counters are snapshotted every `every` DRAM
// cycles and forwarded to the engine pool's observers as EventProgress
// events, so streaming consumers (the crowserve SSE path) see live per-run
// state. Zero disables it. Telemetry does not enter the memoization key —
// cache hits replay no snapshots, because nothing executes.
func Telemetry(every int64) RunnerOption {
	return func(c *runnerConfig) { c.telemetry = every }
}

// UsePool makes the Runner execute on an existing engine pool instead of
// constructing its own. It is how a Runner gets a per-run timeout or a
// persistent result tier (engine.WithTimeout, engine.WithBacking), and how
// independent Runners (e.g. per-request runners in the crowserve service)
// share one memoization cache: a run any of them has completed is a cache hit
// for all of them. The pool's own worker bound applies; a Workers option is
// ignored. An Observe option subscribes to the shared pool permanently —
// callers needing a scoped subscription use Pool().AddObserver's remove
// function instead.
func UsePool(p *engine.Pool[crow.Report]) RunnerOption {
	return func(c *runnerConfig) { c.pool = p }
}

// RunWith substitutes the function that executes one simulation (default
// crow.RunContext). Tests use it to inject context-aware hooks — e.g. a run
// that blocks until cancelled — without paying for real simulations; the
// memoization layer above it is unchanged.
func RunWith(fn func(context.Context, crow.Options) (crow.Report, error)) RunnerOption {
	return func(c *runnerConfig) { c.run = fn }
}

// NewRunner builds a Runner at the given scale. Without options it behaves
// like the historical sequential runner: one worker, no timeout.
func NewRunner(s Scale, opts ...RunnerOption) *Runner {
	cfg := runnerConfig{workers: 1, ctx: context.Background(), run: crow.RunContext}
	for _, o := range opts {
		o(&cfg)
	}
	pool := cfg.pool
	if pool == nil {
		pool = engine.New[crow.Report](cfg.workers)
	}
	if cfg.observer != nil {
		pool.AddObserver(cfg.observer)
	}
	return &Runner{
		Scale:     s,
		pool:      pool,
		ctx:       cfg.ctx,
		verify:    cfg.verify,
		telemetry: cfg.telemetry,
		run:       cfg.run,
	}
}

// Pool exposes the Runner's engine pool for metrics snapshots and event
// subscription (engine.Pool.Snapshot / AddObserver).
func (r *Runner) Pool() *engine.Pool[crow.Report] { return r.pool }

// KeyOf returns the canonical memoization key the Runner uses for o: the
// scale-pinned options' crow Key. Two Runners at the same scale sharing a
// pool agree on keys, which is what makes the cross-request cache work.
func (r *Runner) KeyOf(o crow.Options) string { return r.scaled(o).Key() }

// Workers returns the runner's concurrency bound.
func (r *Runner) Workers() int { return r.pool.Workers() }

// scaled pins the scale-controlled fields, making options canonical for
// keying: the same transformation applies in Run and Execute, so a planned
// run and its reduce-phase re-request always share a cache entry.
func (r *Runner) scaled(o crow.Options) crow.Options {
	o.MeasureInsts = r.Scale.Insts
	o.WarmupInsts = r.Scale.Warmup
	if o.Seed == 0 {
		o.Seed = r.Scale.Seed
	}
	if r.verify {
		o.Verify = true
	}
	return o
}

// exec wraps one simulation: it injects the telemetry bundle (if enabled)
// into the run context, and fails the run if the correctness oracle found
// violations (only possible when the runner verifies).
func (r *Runner) exec(o crow.Options) func(context.Context) (crow.Report, error) {
	return func(ctx context.Context) (crow.Report, error) {
		if r.telemetry > 0 {
			key, label := o.Key(), runLabel(o)
			ctx = obs.With(ctx, &obs.Observers{
				SnapshotEvery: r.telemetry,
				OnSnapshot: func(s obs.IntervalSnapshot) {
					r.pool.Progress(key, label, s)
				},
			})
		}
		rep, err := r.run(ctx, o)
		if err == nil && rep.Violations > 0 {
			sample := ""
			if len(rep.ViolationSamples) > 0 {
				sample = "; first: " + rep.ViolationSamples[0]
			}
			err = fmt.Errorf("correctness oracle: %d violation(s): %s%s",
				rep.Violations, metrics.Counters(rep.ViolationCounts).String(), sample)
		}
		return rep, err
	}
}

// runLabel is the human-readable job description carried by observer
// events: mechanism, workloads, and every knob a study sets (standard, copy
// rows, density, LLC size, mitigation, controller policy, ...), so that no two
// runs of the registry share a label (TestRunLabel).
func runLabel(o crow.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s", o.Mechanism, strings.Join(o.Workloads, "+"))
	if o.Standard != "" {
		b.WriteString(" " + o.Standard)
	}
	if o.CopyRows != 0 {
		fmt.Fprintf(&b, " n=%d", o.CopyRows)
	}
	if o.DensityGbit != 0 {
		fmt.Fprintf(&b, " %dGb", o.DensityGbit)
	}
	if o.LLCBytes%(1<<20) != 0 {
		fmt.Fprintf(&b, " llc=%dKiB", o.LLCBytes>>10)
	} else if o.LLCBytes != 0 {
		fmt.Fprintf(&b, " llc=%dMiB", o.LLCBytes>>20)
	}
	switch o.Mitigation {
	case "para":
		fmt.Fprintf(&b, " para=%d‰", o.ParaPerMille)
	case "refresh-scale":
		fmt.Fprintf(&b, " refx%d", o.RefreshScale)
	case "crow-hammer":
		fmt.Fprintf(&b, " crow-hammer=%d", o.HammerThreshold)
	}
	if o.Prefetch {
		b.WriteString(" +pf")
	}
	if o.PerBankRefresh {
		b.WriteString(" refpb")
	}
	if o.RefreshPostpone != 0 {
		fmt.Fprintf(&b, " postpone=%d", o.RefreshPostpone)
	}
	if o.TableShareGroup > 1 {
		fmt.Fprintf(&b, " share=%d", o.TableShareGroup)
	}
	if o.EagerRestore {
		b.WriteString(" eager")
	}
	if o.FullRestore {
		b.WriteString(" full-restore")
	}
	if o.TLDRAMNearRows != 0 {
		fmt.Fprintf(&b, " near=%d", o.TLDRAMNearRows)
	}
	if o.SALPSubarrays != 0 {
		fmt.Fprintf(&b, " subarrays=%d", o.SALPSubarrays)
	}
	if o.RowPolicy != "" {
		b.WriteString(" " + o.RowPolicy)
	}
	if o.ControllerCap != 0 {
		fmt.Fprintf(&b, " cap=%d", o.ControllerCap)
	}
	if o.RowTimeoutNs != 0 {
		fmt.Fprintf(&b, " timeout=%gns", o.RowTimeoutNs)
	}
	return b.String()
}

// Run executes (or recalls) one simulation. A failed run returns its error
// rather than panicking; the engine propagates it to the CLIs. On a
// recording Runner nothing executes: the request is listed and the answer is
// a placeholder whose IPC and MPKI hold one zero per workload, so a reduce
// function can index them, while every other field is zero.
func (r *Runner) Run(o crow.Options) (crow.Report, error) {
	if r.recording {
		r.recorded = append(r.recorded, o)
		n := len(o.Workloads)
		return crow.Report{IPC: make([]float64, n), MPKI: make([]float64, n)}, nil
	}
	o = r.scaled(o)
	return r.pool.Do(r.ctx, o.Key(), runLabel(o), r.exec(o))
}

// Execute runs a plan: every distinct simulation in opts executes
// once, concurrently up to the worker bound, and the results are memoized
// for the reduce phase. Duplicate plan entries (and runs shared between
// experiments) coalesce by canonical key. It returns the first run error.
func (r *Runner) Execute(opts []crow.Options) error {
	return engine.All(r.ctx, r.pool, opts,
		func(o crow.Options) (string, string, func(context.Context) (crow.Report, error)) {
			o = r.scaled(o)
			return o.Key(), runLabel(o), r.exec(o)
		})
}

// singleApps returns the single-core experiment suite: every non-synthetic
// app (or the configured subset), sorted by descending memory intensity.
// An unknown name in Scale.SingleApps panics: it is a configuration error
// that Scale.Validate catches before a Runner exists.
func (r *Runner) singleApps() []trace.App {
	var apps []trace.App
	if r.Scale.SingleApps != nil {
		for _, name := range r.Scale.SingleApps {
			a, err := trace.ByName(name)
			if err != nil {
				panic(err)
			}
			apps = append(apps, a)
		}
		return apps
	}
	for _, a := range trace.Apps {
		if !a.Synthetic {
			apps = append(apps, a)
		}
	}
	sort.Slice(apps, func(i, j int) bool {
		if apps[i].Class != apps[j].Class {
			return apps[i].Class > apps[j].Class
		}
		return apps[i].Name < apps[j].Name
	})
	return apps
}

// eachApp runs base and arm on every app of the single-core suite, the app
// filled in as their one workload, and hands fn each pair of reports: the
// loop behind every "arm against its baseline, averaged over the suite" row.
func (r *Runner) eachApp(base, arm crow.Options, fn func(base, rep crow.Report)) error {
	for _, app := range r.singleApps() {
		base.Workloads = []string{app.Name}
		arm.Workloads = base.Workloads
		b, err := r.Run(base)
		if err != nil {
			return err
		}
		rep, err := r.Run(arm)
		if err != nil {
			return err
		}
		fn(b, rep)
	}
	return nil
}

// eachMix compares every arm against the baseline on every mix through
// crow.Compare, and hands fn each arm's comparison: the loop behind every
// four-core figure. The baseline is the arm's options with no mechanism
// (density and LLC size kept), and so are the alone runs behind the weights.
func (r *Runner) eachMix(mixes []trace.Mix, arms []arm, fn func(i int, c crow.Comparison)) error {
	for _, mix := range mixes {
		for i, a := range arms {
			a.o.Workloads = trace.Names(mix.Apps)
			c, err := crow.Compare(a.o, r.Run)
			if err != nil {
				return err
			}
			fn(i, c)
		}
	}
	return nil
}
