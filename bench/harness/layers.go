package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdram/bench/pprofile"
	"crowdram/crow"
	"crowdram/internal/engine"
	"crowdram/internal/exp"
	"crowdram/internal/service"
)

// profileLayers maps a package of the module to the layer whose self_share
// its samples count towards; other packages of the module are "other", and
// everything outside it (the Go runtime above all) is the runtime share.
var profileLayers = map[string]string{
	"crowdram/internal/trace":  "trace",
	"crowdram/internal/cpu":    "cpu",
	"crowdram/internal/cache":  "cache",
	"crowdram/internal/ctrl":   "ctrl",
	"crowdram/internal/dram":   "dram",
	"crowdram/internal/core":   "core",
	"crowdram/internal/oracle": "oracle",
	"crowdram/internal/sim":    "sim",
}

// profiled runs fn under a CPU profile and returns each layer's share of
// the samples, keyed as profileLayers names them plus "other" and "runtime".
func profiled(fn func() error) (shares map[string]float64, samples int64, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, 0, ferr
	}
	leaves, err := pprofile.Decode(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares = map[string]float64{}
	if leaves.Total == 0 {
		return shares, 0, nil
	}
	for fn, n := range leaves.ByFunc {
		pkg := pprofile.Package(fn)
		layer, ok := profileLayers[pkg]
		switch {
		case ok:
		case strings.HasPrefix(pkg, "crowdram/"):
			layer = "other"
		default:
			layer = "runtime"
		}
		shares[layer] += float64(n) / float64(leaves.Total)
	}
	return shares, leaves.Total, nil
}

func setShares(ms *metricSet, shares map[string]float64) {
	for _, layer := range []string{"trace", "cpu", "cache", "ctrl", "dram", "core", "oracle", "sim"} {
		ms.set(layer+".self_share", shares[layer])
	}
	ms.set("sim.other_share", shares["other"])
	ms.set("sim.runtime_share", shares["runtime"])
}

func setLadder(ms *metricSet, l ladderResult) {
	ms.set("trace.next_ns", l.traceNextNs)
	ms.set("trace.records", float64(l.traceRecords))
	ms.set("cpu.tick_ns", l.cpuTickNs)
	ms.set("cache.access_ns", l.cacheAccessNs)
	ms.set("cache.hit_ratio", l.cacheHitRatio)
	ms.set("cache.reject_ratio", l.cacheRejectRatio)
	ms.set("ctrl.req_ns", l.ctrlReqNs)
	ms.set("ctrl.tick_ns", l.ctrlTickNs)
	ms.set("ctrl.idle_tick_ns", l.ctrlIdleTickNs)
	ms.set("ctrl.enqueue_reject_ratio", l.ctrlRejectRatio)
	ms.set("ctrl.row_hit_ratio", l.rowHitRatio)
	ms.set("core.table_hit_ratio", l.tableHitRatio)
	ms.set("dram.cmd_ns", l.dramCmdNs)
	ms.set("dram.commands", float64(l.dramCommands))
	ms.set("oracle.cmd_ns_added", l.oracleCmdNsAdded)
}

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// simCost measures what one simulation of o costs the host beyond its
// simulated work: construction (a 1-instruction run), allocations, and host
// nanoseconds per simulated CPU cycle of the measured interval.
func simCost(ctx context.Context, ms *metricSet, o crow.Options) error {
	tiny := o
	tiny.MeasureInsts, tiny.WarmupInsts, tiny.Verify = 1, 1, false
	var setups []float64
	var setupAllocs uint64
	for i := 0; i < 5; i++ {
		before := mallocs()
		start := time.Now()
		if _, err := crow.RunContext(ctx, tiny); err != nil {
			return err
		}
		setups = append(setups, float64(time.Since(start).Microseconds())/1000)
		setupAllocs = mallocs() - before
	}
	ms.set("sim.setup_ms", median(setups))
	ms.set("sim.setup_allocs", float64(setupAllocs))

	before := mallocs()
	start := time.Now()
	rep, err := crow.RunContext(ctx, o)
	if err != nil {
		return err
	}
	took := time.Since(start)
	ms.set("sim.run_allocs", float64(mallocs()-before))
	var cycles float64
	for _, ipc := range rep.IPC {
		if ipc > 0 {
			cycles = math.Max(cycles, float64(o.MeasureInsts)/ipc)
		}
	}
	if cycles > 0 {
		ms.set("sim.host_ns_per_cpu_cycle", float64(took.Nanoseconds())/cycles)
	}
	return nil
}

// tracedSim produces a simulator workload's per-layer metrics: one untraced
// repetition of the command as the reference, the same simulations in this
// process under a CPU profile, the layer ladder, and the per-run costs.
func (e *Env) tracedSim(ctx context.Context, name string, seed int64, seconds float64) (Result, Info) {
	var info Info
	res := Result{Attempted: 1}
	ms := newMetricSet(PerLayer)
	finish := func() (Result, Info) { return seal(&res, &info, ms, false) }
	spec, err := e.simSpec(name, seed)
	if err != nil {
		info.fail("%v", err)
		return finish()
	}
	info.size("seed", float64(seed))

	// The reference: the real binary, once, checked like an untraced run.
	if err := e.setupSim(ctx, spec); err != nil {
		info.fail("set-up: %v", err)
		return finish()
	}
	if spec.bin != "crowsim" {
		if err := e.Build(ctx, "crowsim"); err != nil {
			info.fail("set-up: %v", err)
			return finish()
		}
	}
	var starts []float64
	for i := 0; i < 5; i++ {
		c, err := runChild(ctx, time.Minute, e.bin("crowsim"), "-list")
		if err != nil {
			info.fail("%v", err)
			return finish()
		}
		starts = append(starts, float64(c.Wall.Microseconds())/1000)
	}
	ms.set("cmd.start_ms", median(starts))

	args := append(append([]string(nil), spec.args...), "-seed", strconv.FormatInt(seed, 10))
	ref, err := runChild(ctx, 170*time.Second, e.bin(spec.bin), args...)
	if err != nil {
		info.fail("%v", err)
		return finish()
	}
	digest, failures := e.checkSim(spec, seed, ref.Stdout)
	info.SimDigest = digest
	info.Failures = append(info.Failures, failures...)

	// The same work in this process, profiled.
	var tracedWall time.Duration
	var costOpts crow.Options
	if spec.bin == "crowbench" {
		tracedWall, err = e.tracedRepro(ctx, spec, ms, &info)
		costOpts = crow.Options{Mechanism: crow.Cache, Workloads: []string{"mcf"},
			MeasureInsts: spec.scale.Insts, WarmupInsts: spec.scale.Warmup, Seed: seed}
	} else {
		tracedWall, err = e.tracedRuns(ctx, spec, ref.Wall, seconds, ms, &info)
		costOpts = spec.opts
	}
	if err != nil {
		info.fail("%s: traced run: %v", name, err)
		return finish()
	}
	ms.set("trace_overhead_ratio", tracedWall.Seconds()/ref.Wall.Seconds())

	apps := spec.opts.Workloads
	density := spec.opts.DensityGbit
	if spec.bin == "crowbench" {
		apps, density = spec.scale.SingleApps, 8
		if len(apps) > 4 {
			apps = apps[:4]
		}
	}
	lad, err := runLadder(apps, seed, e.Sizes.LadderInsts, density)
	if err != nil {
		info.fail("%s: %v", name, err)
		return finish()
	}
	setLadder(ms, lad)
	if lad.oracleViolations != 0 {
		info.fail("%s: the oracle found %d violations in the replayed command stream", name, lad.oracleViolations)
	}

	if err := simCost(ctx, ms, costOpts); err != nil {
		info.fail("%s: %v", name, err)
		return finish()
	}

	violations := float64(lad.oracleViolations)
	if spec.opts.Verify {
		// The oracle's end-to-end price: the mechanism run without and
		// with it, alternated, medians compared.
		var off, on []float64
		for i := 0; i < 2; i++ {
			for _, verify := range []bool{false, true} {
				o := spec.opts
				o.Verify = verify
				start := time.Now()
				rep, err := crow.RunContext(ctx, o)
				if err != nil {
					info.fail("%s: %v", name, err)
					return finish()
				}
				if verify {
					on = append(on, time.Since(start).Seconds())
					violations += float64(rep.Violations)
				} else {
					off = append(off, time.Since(start).Seconds())
				}
			}
		}
		ms.set("oracle.overhead_ratio", median(on)/median(off))
	}
	ms.set("oracle.violations", violations)
	return finish()
}

// tracedRuns executes a crowsim workload's simulations in this process under
// the profile, as many times over as fill half the time budget, and returns
// the wall time of one pass.
func (e *Env) tracedRuns(ctx context.Context, spec simSpec, refWall time.Duration, seconds float64, ms *metricSet, info *Info) (time.Duration, error) {
	passes := int(math.Ceil(seconds / 2 / refWall.Seconds()))
	if passes < 1 {
		passes = 1
	}
	runs := spec.runs()
	var reps []crow.Report
	var total time.Duration
	shares, samples, err := profiled(func() error {
		for p := 0; p < passes; p++ {
			reps = reps[:0]
			start := time.Now()
			for _, o := range runs {
				rep, err := crow.RunContext(ctx, o)
				if err != nil {
					return err
				}
				reps = append(reps, rep)
			}
			total += time.Since(start)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	setShares(ms, shares)
	info.samples("self_share", int(samples))

	// The in-process result must be the bytes the binary printed.
	var out any = reps[0]
	if spec.compare {
		c, err := crow.CompareFrom(spec.opts, reps)
		if err != nil {
			return 0, err
		}
		out = c
		ms.set("sim.ws_speedup_pct", 100*c.Speedup)
		ms.set("sim.energy_saved_pct", 100*(1-c.EnergyRatio))
	}
	enc, err := indentJSON(out)
	if err != nil {
		return 0, err
	}
	if got := digestOf(enc); got != info.SimDigest {
		info.fail("%s: the in-process run disagrees with the binary's output (digest %s vs %s)", spec.name, got, info.SimDigest)
	}
	return total / time.Duration(passes), nil
}

// tracedRepro runs the reproduction through exp.Runner in this process under
// the profile, timing plan, execute and reduce and watching the engine.
func (e *Env) tracedRepro(ctx context.Context, spec simSpec, ms *metricSet, info *Info) (time.Duration, error) {
	sel, err := exp.Select(spec.exps)
	if err != nil {
		return 0, err
	}
	var (
		mu      sync.Mutex
		runTime time.Duration
		slowest time.Duration
	)
	watch := func(ev engine.Event) {
		if ev.Type == engine.EventFinished {
			mu.Lock()
			runTime += ev.Duration
			if ev.Duration > slowest {
				slowest = ev.Duration
			}
			mu.Unlock()
		}
	}
	var (
		r                     *exp.Runner
		tables                []exp.Table
		plan                  []crow.Options
		planT, execT, reduceT time.Duration
	)
	start := time.Now()
	shares, samples, err := profiled(func() error {
		r = exp.NewRunner(spec.scale, exp.Workers(e.NProc), exp.WithContext(ctx), exp.Observe(watch))
		t := time.Now()
		plan = exp.PlanAll(r, sel)
		planT = time.Since(t)
		t = time.Now()
		if err := r.Execute(plan); err != nil {
			return err
		}
		execT = time.Since(t)
		t = time.Now()
		for _, ex := range sel {
			tbl, err := ex.Table(r)
			if err != nil {
				return fmt.Errorf("%s: %w", ex.Name, err)
			}
			tables = append(tables, tbl)
		}
		reduceT = time.Since(t)
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	setShares(ms, shares)
	info.samples("self_share", int(samples))

	snap := r.Pool().Snapshot()
	ms.set("exp.plan_ms", float64(planT.Microseconds())/1000)
	ms.set("exp.planned_runs", float64(len(plan)))
	ms.set("exp.distinct_runs", float64(snap.Executions))
	ms.set("exp.execute_s", execT.Seconds())
	ms.set("exp.reduce_ms", float64(reduceT.Microseconds())/1000)
	ms.set("exp.slowest_run_s", slowest.Seconds())
	ms.set("exp.worker_busy_ratio", ratio(runTime.Seconds(), float64(r.Workers())*execT.Seconds()))
	ms.set("engine.executions", float64(snap.Executions))
	ms.set("engine.memo_hits", float64(snap.CacheHits))
	ms.set("engine.store_hits", float64(snap.StoreHits))
	ms.set("engine.memo_hit_ratio", snap.HitRatio())
	engineCost(ctx, ms)

	enc, err := indentJSON(tables)
	if err != nil {
		return 0, err
	}
	if got := digestOf(enc); got != info.SimDigest {
		info.fail("%s: the in-process tables disagree with crowbench's output (digest %s vs %s)", spec.name, got, info.SimDigest)
	}
	if gap, ok, err := paperGap(r, sel); err != nil {
		return 0, err
	} else if ok {
		ms.set("exp.paper_gap_pp", gap)
	} else {
		info.note("exp.paper_gap_pp needs fig8, fig9, fig10, fig13 and fig14 in the selection; not measured")
	}
	return wall, nil
}

// paperGap is the mean absolute gap, in percentage points, between this
// reproduction and the six headline numbers the paper reports. The paper is
// the only reference the repository holds: the model is not validated
// against hardware, and the reproduction runs at QuickScale, not the paper's
// 200 M instructions.
func paperGap(r *exp.Runner, sel []exp.Experiment) (gap float64, ok bool, err error) {
	have := map[string]bool{}
	for _, ex := range sel {
		have[ex.Name] = true
	}
	for _, need := range []string{"fig8", "fig9", "fig10", "fig13", "fig14"} {
		if !have[need] {
			return 0, false, nil
		}
	}
	f8, err := exp.Fig8(r)
	if err != nil {
		return 0, false, err
	}
	f9, err := exp.Fig9(r)
	if err != nil {
		return 0, false, err
	}
	f10, err := exp.Fig10(r)
	if err != nil {
		return 0, false, err
	}
	f13, err := exp.Fig13(r)
	if err != nil {
		return 0, false, err
	}
	f14, err := exp.Fig14(r)
	if err != nil {
		return 0, false, err
	}
	cell := f14.Cells[8]["cache+ref"]
	rows := [][2]float64{ // {reproduced, paper}, both in percent
		{100 * f8.AvgSpeedup[8], 7.1},
		{100 * f9.Stats["HHHH"]["CROW-8"].Avg, 7.4},
		{100 * (1 - f10.SingleCore), 8.2},
		{100 * f13.Point(64).SingleSpeedup, 7.1},
		{100 * cell.Speedup, 20.0},
		{100 * (1 - cell.Energy), 22.3},
	}
	for _, row := range rows {
		gap += math.Abs(row[0] - row[1])
	}
	return gap / float64(len(rows)), true, nil
}

// engineCost times the engine's two paths around a no-op job: a memo hit on
// a warm key, and the bookkeeping of a miss on fresh keys.
func engineCost(ctx context.Context, ms *metricSet) {
	const n = 20_000
	pool := engine.New[int](1)
	noop := func(context.Context) (int, error) { return 1, nil }
	pool.Do(ctx, "warm", "warm", noop)
	start := time.Now()
	for i := 0; i < n; i++ {
		pool.Do(ctx, "warm", "warm", noop)
	}
	ms.set("engine.memo_hit_ns", perOp(time.Since(start), n))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	start = time.Now()
	for _, k := range keys {
		pool.Do(ctx, k, k, noop)
	}
	ms.set("engine.miss_overhead_ns", perOp(time.Since(start), n))
}

// serviceCost times the pieces of the service stack that the HTTP numbers
// fold together: option keying and decoding, the store's put / get / open,
// and a job's trip through Submit, the queue and a worker with an instant
// simulation and no HTTP.
func (e *Env) serviceCost(ctx context.Context, ms *metricSet, seed int64, storeEntries int) error {
	o := coldOptions(coldSeed(seed, 0))
	specJSON := optionsBody(o)
	var doc struct {
		Options json.RawMessage `json:"options"`
	}
	if err := json.Unmarshal(specJSON, &doc); err != nil {
		return err
	}
	const n = 5_000
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = o.Key()
	}
	ms.set("crow.key_ns", perOp(time.Since(start), n))
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := crow.DecodeOptions(doc.Options); err != nil {
			return err
		}
	}
	ms.set("crow.decode_ns", perOp(time.Since(start), n))

	// store: the same entries serve-open pre-populates.
	dir, err := os.MkdirTemp(e.tmpDir(), "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := exp.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	tiny := o
	tiny.MeasureInsts, tiny.WarmupInsts = 1000, 100
	rep, err := crow.RunContext(ctx, tiny)
	if err != nil {
		return err
	}
	keys := make([]string, storeEntries)
	for i := range keys {
		keys[i] = coldOptions(storeSeed(seed, i)).Key()
	}
	start = time.Now()
	for _, k := range keys {
		st.Put(k, rep)
	}
	ms.set("store.put_us", perOp(time.Since(start), len(keys))/1000)
	start = time.Now()
	for _, k := range keys {
		if _, ok := st.Get(k); !ok {
			return fmt.Errorf("store: entry %s written and not found", k)
		}
	}
	ms.set("store.get_us", perOp(time.Since(start), len(keys))/1000)
	stats := st.Stats()
	ms.set("store.entry_bytes", ratio(float64(stats.Bytes), float64(stats.Files)))
	var opens []float64
	for i := 0; i < 5; i++ {
		start = time.Now()
		if _, err := exp.OpenStore(dir, 0); err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(start).Microseconds())/1000)
	}
	ms.set("store.open_ms", median(opens))

	// service, in process: Submit → terminal with an instant Run hook.
	svc := service.New(service.Config{
		Scale:   e.serveScale(seed),
		Workers: 2,
		Run:     func(context.Context, crow.Options) (crow.Report, error) { return rep, nil },
	})
	var trips []float64
	for i := 0; i < 300; i++ {
		body := optionsBody(coldOptions(coldSeed(seed, i)))
		if err := json.Unmarshal(body, &doc); err != nil {
			return err
		}
		start := time.Now()
		j, err := svc.Submit(service.Spec{Options: doc.Options})
		if err != nil {
			return err
		}
		for {
			_, changed, terminal := j.EventsSince(0)
			if terminal {
				break
			}
			<-changed
		}
		trips = append(trips, float64(time.Since(start).Nanoseconds())/1000)
		if st := j.State(); st != service.StateDone {
			return fmt.Errorf("in-process job ended %s", st)
		}
	}
	ms.set("service.inproc_submit_done_us", median(trips))
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return svc.Drain(drainCtx)
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1000
	}
	return out
}

// tracedServe produces serve-open's per-layer metrics: the same two phases
// against the real server, with /metrics scraped, plus the in-process costs
// of the layers a job passes through.
func (e *Env) tracedServe(ctx context.Context, seed int64, seconds float64) (Result, Info) {
	var info Info
	ms := newMetricSet(PerLayer)
	res := Result{}
	run, err := e.runServe(ctx, seed, seconds, true, &info)
	if err != nil {
		info.fail("serve-open: %v", err)
	}
	res.Attempted, res.Failed = run.tally(&info)
	finish := func() (Result, Info) { return seal(&res, &info, ms, false) }
	if err != nil {
		return finish()
	}

	all := run.latenciesMS(-1, 0, forever)
	cold := run.latenciesMS(classCold, 0, forever)
	warm := run.latenciesMS(classWarm, 0, forever)
	stor := run.latenciesMS(classStore, 0, forever)
	info.samples("service.job_p99_ms", len(all))
	info.samples("service.cold_job_ms", len(cold))
	info.samples("service.warm_p99_ms", len(warm))
	info.samples("service.store_p50_ms", len(stor))
	ms.set("service.job_p50_ms", median(all))
	ms.set("service.job_p90_ms", percentile(all, 90))
	ms.set("service.job_p99_ms", percentile(all, 99))
	ms.set("service.cold_job_ms", median(cold))
	ms.set("service.cold_p99_ms", percentile(cold, 99))
	ms.set("service.warm_p50_ms", median(warm))
	ms.set("service.warm_p99_ms", percentile(warm, 99))
	ms.set("service.store_p50_ms", median(stor))
	over := 0
	var late, submits []float64
	for _, o := range run.phaseA {
		if o.failed != "" || float64(o.latency)/float64(time.Millisecond) > e.Sizes.ServeLimitMS {
			over++
		}
		late = append(late, float64(o.late)/float64(time.Millisecond))
		if o.submitRTT > 0 {
			submits = append(submits, float64(o.submitRTT.Nanoseconds())/1000)
		}
	}
	ms.set("service.over_limit_share", ratio(float64(over), float64(len(run.phaseA))))
	ms.set("service.gen_late_p99_ms", math.Max(0, percentile(late, 99)))
	ms.set("service.submit_us", median(submits))
	ms.set("service.status_us", median(usOf(run.statusRTT)))
	info.samples("service.submit_us", len(submits))
	info.samples("service.status_us", len(run.statusRTT))

	doneB, rejected := 0, 0
	for _, o := range run.all() {
		if strings.HasPrefix(o.failed, "submit: HTTP 503") {
			rejected++
		}
	}
	for _, o := range run.phaseB {
		if o.failed == "" {
			doneB++
		}
	}
	info.samples("service.closed_jobs_per_s", doneB)
	ms.set("service.closed_jobs_per_s", ratio(float64(doneB), run.elapsedB.Seconds()))
	ms.set("service.rejected", float64(rejected))
	ms.set("service.queue_depth_max", float64(run.depthMax))
	ms.set("service.cpu_ms_per_job", ratio(float64(run.cpu.Microseconds())/1000, float64(run.jobs)))

	for _, st := range []struct{ metric, stage string }{
		{"service.stage_http_p50_ms", "http-handle"},
		{"service.stage_queue_wait_p50_ms", "queue-wait"},
		{"service.stage_memo_p50_ms", "memo-lookup"},
		{"service.stage_store_read_p50_ms", "store-read"},
		{"service.stage_execute_p50_ms", "execute"},
		{"service.stage_store_write_p50_ms", "store-write"},
	} {
		ms.set(st.metric, run.afterA.Stages[st.stage].P50MS)
	}
	ms.set("service.stage_queue_wait_p99_ms", run.afterA.Stages["queue-wait"].P99MS)
	if len(run.afterA.Stages) != 6 {
		info.fail("serve-open: /metrics lists %d stages, want the six of the job pipeline", len(run.afterA.Stages))
	}

	ms.set("engine.executions", float64(run.afterA.Engine.Executions))
	ms.set("engine.memo_hits", float64(run.afterA.Engine.CacheHits))
	ms.set("engine.store_hits", float64(run.afterA.Engine.StoreHits))
	ms.set("engine.memo_hit_ratio", run.afterA.Engine.HitRatio)
	engineCost(ctx, ms)

	// The sampler ran through the second half of the open loop only.
	half := run.lengthA / 2
	first, second := run.latenciesMS(classCold, 0, half), run.latenciesMS(classCold, half, forever)
	if len(first) > 0 && len(second) > 0 {
		ms.set("trace_overhead_ratio", median(second)/median(first))
	}

	if err := e.serviceCost(ctx, ms, seed, int(info.Sizes["store_warm_keys"])); err != nil {
		info.fail("serve-open: %v", err)
		return finish()
	}

	// What a cold job is made of: the ladder and the profile of its
	// simulation, and the cost of constructing it.
	job := coldOptions(coldSeed(seed, 0))
	job.MeasureInsts, job.WarmupInsts = e.Sizes.ServeInsts, e.Sizes.ServeInsts/10
	lad, err := runLadder(job.Workloads, seed, e.Sizes.LadderInsts, 8)
	if err != nil {
		info.fail("serve-open: %v", err)
		return finish()
	}
	setLadder(ms, lad)
	ms.set("oracle.violations", float64(lad.oracleViolations))
	if lad.oracleViolations != 0 {
		info.fail("serve-open: the oracle found %d violations in the replayed command stream", lad.oracleViolations)
	}
	budget := time.Duration(seconds / 5 * float64(time.Second))
	shares, samples, err := profiled(func() error {
		for i, start := 0, time.Now(); i == 0 || time.Since(start) < budget; i++ {
			o := job
			o.Seed = coldSeed(seed, i)
			if _, err := crow.RunContext(ctx, o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		info.fail("serve-open: %v", err)
		return finish()
	}
	setShares(ms, shares)
	info.samples("self_share", int(samples))
	if err := simCost(ctx, ms, job); err != nil {
		info.fail("serve-open: %v", err)
	}
	// crowserve's start-up cost: -h parses the flags, prints usage, exits 0.
	if c, err := runChild(ctx, time.Minute, e.bin("crowserve"), "-h"); err == nil {
		ms.set("cmd.start_ms", float64(c.Wall.Microseconds())/1000)
	}
	return finish()
}
