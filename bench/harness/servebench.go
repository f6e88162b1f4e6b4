package harness

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

// serveRun is everything one serve-open invocation measured.
type serveRun struct {
	setupS    float64
	lengthA   time.Duration
	phaseA    []*jobOutcome
	statusRTT []time.Duration
	phaseB    []*jobOutcome
	elapsedB  time.Duration
	afterA    metricsDoc // /metrics when the open-loop phase ended
	depthMax  int        // deepest queue the sampler saw (traced runs)
	jobs      int64      // submissions the server accepted, set-up included
	cpu       time.Duration
	rssMiB    float64
	host      *hostMeter // untraced runs: the host-speed reference, sampled around set-ups and phases
}

// runServe drives the serve-open workload: set-up (repeated, timed), the
// open-loop phase, the closed-loop phase, the end-of-run checks, and the
// server's shutdown. Failed checks land in info; the server is stopped and
// its directory removed on every path.
func (e *Env) runServe(ctx context.Context, seed int64, seconds float64, traced bool, info *Info) (run *serveRun, err error) {
	z := e.Sizes
	run = &serveRun{}
	run.lengthA = time.Duration(seconds * float64(z.ServeOpenPct) / 100 * float64(time.Second))
	lengthB := time.Duration(seconds*float64(time.Second)) - run.lengthA
	nA := int(z.ServeRate*run.lengthA.Seconds()) / 10 * 10
	if nA < 10 {
		nA = 10
	}
	storeKeys := nA/10 + z.ServeMaxB/10
	info.size("open_loop_jobs", float64(nA))
	info.size("open_loop_rate_per_s", z.ServeRate)
	info.size("open_loop_s", run.lengthA.Seconds())
	info.size("closed_loop_s", lengthB.Seconds())
	info.size("closed_loop_clients", float64(e.NProc))
	info.size("store_warm_keys", float64(storeKeys))
	info.size("memo_warm_keys", float64(z.ServeWarm))
	info.size("job_insts", float64(z.ServeInsts))
	info.size("seed", float64(seed))

	var srv *server
	defer func() {
		if srv != nil {
			run.jobs = srv.jobs.Load()
			run.cpu, run.rssMiB = srv.stop()
		}
	}()
	reps := z.SetupReps
	around := func() {}
	if traced {
		reps = 1 // a traced run does not report setup_s
	} else {
		if run.host, err = e.newHostMeter(ctx); err != nil {
			return run, err
		}
		around = func() { run.host.sample(ctx, 1) }
	}
	// One pristine store per set-up (a server writes the memo-warm keys'
	// results into its own), all written before the first set-up is timed.
	var fixtures []*storeFixture
	defer func() {
		for _, fx := range fixtures { // those no server took over
			os.RemoveAll(fx.dir)
		}
	}()
	for i := 0; i < reps; i++ {
		fx, err := e.newStoreFixture(ctx, seed, storeKeys)
		if err != nil {
			return run, fmt.Errorf("store fixture: %w", err)
		}
		fixtures = append(fixtures, fx)
	}
	run.setupS, err = medianSetup(reps, func(last bool) error {
		fx := fixtures[0]
		fixtures = fixtures[1:]
		s, err := e.startServer(ctx, seed, fx)
		if err != nil {
			return err
		}
		if last {
			srv = s
		} else {
			s.stop()
		}
		return nil
	}, around)
	if err != nil {
		return run, fmt.Errorf("set-up: %w", err)
	}
	e.logf("serve-open: set-up %.3f s (median of %d); open loop: %d jobs over %v", run.setupS, reps, nA, run.lengthA)

	rng := rand.New(rand.NewSource(seed))
	var cold, store int
	jobsA := srv.mixJobs(rng, seed, nA, &cold, &store)
	schedule(rng, jobsA, run.lengthA)
	jobsB := srv.mixJobs(rng, seed, z.ServeMaxB/10*10, &cold, &store)

	// Open loop. A traced run samples /metrics every 250 ms through the
	// second half only, so the first half prices the sampling.
	var onHalf func()
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if traced {
		onHalf = func() {
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				tick := time.NewTicker(250 * time.Millisecond)
				defer tick.Stop()
				for {
					if doc, err := srv.metrics(); err == nil && doc.Queue.Depth > run.depthMax {
						run.depthMax = doc.Queue.Depth
					}
					select {
					case <-stopSampler:
						return
					case <-tick.C:
					}
				}
			}()
		}
	}
	run.phaseA, run.statusRTT = srv.openLoop(ctx, jobsA, e.NProc, run.lengthA, 10*time.Second, onHalf)
	close(stopSampler)
	sampler.Wait()
	if run.host != nil {
		run.host.sample(ctx, 3)
	}
	if run.afterA, err = srv.metrics(); err != nil {
		info.fail("serve-open: /metrics after the open-loop phase: %v", err)
	}

	e.logf("serve-open: closed loop: %d clients for %v", e.NProc, lengthB)
	run.phaseB, run.elapsedB = srv.closedLoop(ctx, jobsB, e.NProc, lengthB)
	if run.host != nil {
		run.host.sample(ctx, 3)
	}

	e.checkServe(srv, run, info)
	return run, nil
}

// checkServe runs serve-open's correctness checks: one report per key, the
// store-warm replies equal to what was pre-populated, and the engine's own
// counters equal to the number of distinct keys of each class requested.
func (e *Env) checkServe(srv *server, run *serveRun, info *Info) {
	byKey := map[string][]byte{}
	var coldDone, storeDone int64
	for _, out := range run.all() {
		if out.failed != "" {
			continue
		}
		key := string(out.job.body)
		if prev, seen := byKey[key]; seen && !bytes.Equal(prev, out.report) {
			info.fail("serve-open: two replies for %s carry different reports", key)
		}
		byKey[key] = out.report
		switch out.job.class {
		case classCold:
			coldDone++
		case classStore:
			storeDone++
			if want := srv.stored[key]; !bytes.Equal(want, out.report) {
				info.fail("serve-open: the reply for store-warm key %s is not the pre-populated report", key)
			}
		}
	}
	final, err := srv.metrics()
	if err != nil {
		info.fail("serve-open: /metrics at the end: %v", err)
		return
	}
	if want := coldDone + int64(len(srv.warm)); final.Engine.Executions != want {
		info.fail("serve-open: engine.executions = %d, want %d (distinct cold keys + the memo-warm set): singleflight or key derivation broke",
			final.Engine.Executions, want)
	}
	if final.Engine.StoreHits != storeDone {
		info.fail("serve-open: engine.store_hits = %d, want %d (store-warm keys requested)", final.Engine.StoreHits, storeDone)
	}
	if final.Engine.Failures != 0 {
		info.fail("serve-open: engine.failures = %d", final.Engine.Failures)
	}
}

// all returns the outcomes of both phases.
func (run *serveRun) all() []*jobOutcome {
	return append(append([]*jobOutcome(nil), run.phaseA...), run.phaseB...)
}

// tally counts attempted and failed jobs of both phases and records the
// first few failure reasons.
func (run *serveRun) tally(info *Info) (attempted, failed int) {
	for _, out := range run.all() {
		attempted++
		if out.failed != "" {
			failed++
			if failed <= 5 {
				info.fail("serve-open: job %s (%s): %s", out.id, className[out.job.class], out.failed)
			}
		}
	}
	return attempted, failed
}

// latenciesMS returns phase-A latencies in milliseconds, of one class or
// (class < 0) of all, optionally restricted to jobs due in [from, to).
func (run *serveRun) latenciesMS(class int, from, to time.Duration) []float64 {
	var out []float64
	for _, o := range run.phaseA {
		if o.failed != "" || (class >= 0 && o.job.class != class) {
			continue
		}
		if o.job.due < from || o.job.due >= to {
			continue
		}
		out = append(out, float64(o.latency)/float64(time.Millisecond))
	}
	return out
}

const forever = time.Duration(1<<63 - 1)

// untracedServe reports serve-open's end-to-end metrics.
func (e *Env) untracedServe(ctx context.Context, seed int64, seconds float64) (Result, Info) {
	var info Info
	ms := newMetricSet(EndToEnd)
	res := Result{}
	run, err := e.runServe(ctx, seed, seconds, false, &info)
	if err != nil {
		info.fail("serve-open: %v", err)
	}
	res.Attempted, res.Failed = run.tally(&info)
	if err == nil {
		ms.set("peak_rss_mib", run.rssMiB)
		cold := run.latenciesMS(classCold, 0, forever)
		info.samples("wall_s", len(cold))
		speed, herr := run.host.speed()
		switch {
		case herr != nil:
			info.fail("serve-open: %v", herr)
		case len(cold) > 0:
			// The lower quartile: the cold jobs that met little queueing.
			// Queueing multiplies any slowdown of the host, so the median
			// moved by a third between runs where this moved by a tenth;
			// the traced run reports the median and p99 beside it. Like
			// the simulator workloads' times it is scaled by the host's
			// slowdown; the reference work cannot run beside the open loop
			// without taking a CPU from the server, so it is sampled
			// around the set-ups and after each phase, server idle.
			q1, _ := quartiles(cold)
			info.Host = speed
			setup, wall := speed.scale(run.setupS, q1/1000)
			ms.set("setup_s", setup)
			ms.set("wall_s", wall)
			insts := e.Sizes.ServeInsts + e.Sizes.ServeInsts/10
			ms.set("sim_minst_per_s", float64(insts)/1e6/wall)
		}
	}
	return seal(&res, &info, ms, true)
}
