// Command crowsim runs a single CROW simulation and prints a report.
//
// Examples:
//
//	crowsim -mech crow-cache -workloads mcf
//	crowsim -mech crow-cache+ref -workloads mcf,lbm,gcc,povray -density 64
//	crowsim -mech tl-dram -workloads soplex -compare -j 4
//	crowsim -mech crow-cache -workloads mcf -verify -trace-out run.json
//	crowsim -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"crowdram/crow"
	"crowdram/internal/engine"
	"crowdram/internal/metrics"
	"crowdram/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "crowsim:", err)
		os.Exit(1)
	}
}

// errVerifyFailed marks an oracle-violation exit; the report has already
// been printed when it is returned.
var errVerifyFailed = errors.New("verification failed")

// cli is a parsed command line: the simulation it asks for, and how to run
// and print it.
type cli struct {
	opts crow.Options

	compare, verbose, asJSON, list, listStds    bool
	jobs, traceCap                              int
	timeout                                     time.Duration
	traceOut, cpuProfile, memProfile, execTrace string
}

// parse binds every simulation flag straight to its crow.Options field. A
// flag left unset leaves the field zero, which means "default" exactly as it
// does in JSON and the library, so crow.Options is the only place a default
// is applied; the help strings merely quote it.
func parse(args []string, stderr io.Writer) (cli, error) {
	var c cli
	o := &c.opts
	fs := flag.NewFlagSet("crowsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	commaList := func(dst *[]string) func(string) error {
		return func(s string) error { *dst = strings.Split(s, ","); return nil }
	}
	fs.StringVar((*string)(&o.Mechanism), "mech", "", "mechanism: baseline, crow-cache, crow-ref, crow-cache+ref, crow-hammer, ideal-cache, ideal-norefresh, tl-dram, salp, raidr, chargecache (default baseline)")
	fs.StringVar(&o.Standard, "standard", "", "memory standard: "+strings.Join(crow.Standards(), ", ")+" (default lpddr4)")
	fs.StringVar(&o.Scheduler, "sched", "", "controller scheduler: "+strings.Join(crow.Schedulers(), ", ")+" (default frfcfs-cap)")
	fs.StringVar(&o.RowPolicy, "rowpolicy", "", "row-buffer policy: "+strings.Join(crow.RowPolicies(), ", ")+" (default timeout)")
	fs.StringVar(&o.Mapping, "mapping", "", "address mapping: "+strings.Join(crow.Mappings(), ", ")+" (default robarococh)")
	fs.Func("workloads", "comma-separated workload names, one per core (1-4) (default mcf)", commaList(&o.Workloads))
	fs.Func("traces", "comma-separated trace files (tracegen format), one per core; overrides -workloads", commaList(&o.TraceFiles))
	fs.IntVar(&o.CopyRows, "copyrows", 0, "copy rows per subarray (CROW-n) (default 8)")
	fs.IntVar(&o.DensityGbit, "density", 0, "DRAM chip density in Gbit: 8, 16, 32, 64 (default 8)")
	llcMiB := fs.Int("llc", 0, "LLC capacity in MiB (default 8)")
	llcKiB := fs.Int("llc-kib", 0, "LLC capacity in KiB, overriding -llc (0 = use -llc); cache-flush attack studies need sub-MiB caches")
	fs.Int64Var(&o.MeasureInsts, "insts", 0, "measured instructions per core (default 500000)")
	fs.Int64Var(&o.WarmupInsts, "warmup", 0, "warmup instructions per core (default insts/10)")
	fs.Int64Var(&o.Seed, "seed", 0, "random seed (default 1)")
	fs.BoolVar(&o.Prefetch, "prefetch", false, "enable the stride prefetcher")
	fs.IntVar(&o.TLDRAMNearRows, "tl-near", 0, "TL-DRAM near-segment rows (default 8)")
	fs.IntVar(&o.SALPSubarrays, "salp", 0, "SALP subarrays per bank (default 128)")
	fs.BoolVar(&o.SALPOpenPage, "salp-open", false, "SALP open-page policy")
	fs.IntVar(&o.HammerThreshold, "hammer-threshold", 0, "RowHammer detection threshold (default 2048)")
	fs.StringVar(&o.Mitigation, "mitigation", "", "RowHammer mitigation: "+strings.Join(crow.Mitigations(), ", ")+" (default none)")
	fs.IntVar(&o.ParaPerMille, "para-permille", 0, "PARA neighbour-refresh probability in 1/1000 per ACT (default 5 when -mitigation para)")
	fs.IntVar(&o.RefreshScale, "refresh-scale", 0, "refresh-rate multiplier for -mitigation refresh-scale (default 4)")
	fs.IntVar(&o.FlipHCFirst, "flip-hcfirst", 0, "enable the bit-flip model with this median HC_first threshold (0 = off)")
	fs.IntVar(&o.FlipJitterPct, "flip-jitter", 0, "flip model per-row threshold jitter in percent (default 25)")
	fs.IntVar(&o.FlipBlastPct, "flip-blast", 0, "flip model distance-2 blast dose in percent of distance-1 (default 25; negative disables)")
	fs.IntVar(&o.FlipPatternPct, "flip-pattern", 0, "flip model data-pattern threshold scale in percent for the susceptible half of rows (default 75)")
	fs.StringVar(&o.Translation, "translation", "", "virtual-to-physical translation: "+strings.Join(crow.Translations(), ", ")+" (default hash)")
	fs.IntVar(&o.TableShareGroup, "table-share", 0, "CROW-table sharing group (Section 6.1) (default 1)")
	fs.BoolVar(&o.PerBankRefresh, "refpb", false, "use LPDDR4 per-bank refresh")
	fs.IntVar(&o.RefreshPostpone, "postpone", 0, "elastic refresh postponement limit (JEDEC allows 8)")
	fs.BoolVar(&o.Verify, "verify", false, "run the correctness oracle alongside the simulation and report violations")

	fs.BoolVar(&c.compare, "compare", false, "also run the baseline and report speedup/energy savings")
	fs.IntVar(&c.jobs, "j", 1, "max simulations in flight for -compare (0 = GOMAXPROCS)")
	fs.DurationVar(&c.timeout, "timeout", 0, "per-simulation wall-clock limit (0 = none)")
	fs.BoolVar(&c.verbose, "v", false, "print progress per simulation run")
	fs.BoolVar(&c.asJSON, "json", false, "emit the report as JSON")
	fs.BoolVar(&c.list, "list", false, "list available workloads and exit")
	fs.BoolVar(&c.listStds, "list-standards", false, "list registered standards, schedulers, row policies and mappings, then exit")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome/Perfetto trace-event JSON of the run (open at ui.perfetto.dev)")
	fs.IntVar(&c.traceCap, "trace-cap", 1_000_000, "event-tracer ring capacity; oldest events drop beyond it")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a Go CPU profile of the simulator process")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a Go heap profile at exit")
	fs.StringVar(&c.execTrace, "exectrace", "", "write a Go runtime execution trace")
	err := fs.Parse(args)
	// Zero selects the default the help text quotes, so an explicit 0 on such
	// a flag would run that default without a word.
	fs.Visit(func(f *flag.Flag) {
		if _, def, ok := strings.Cut(f.Usage, "(default "); ok && err == nil && f.DefValue == "0" && f.Value.String() == "0" {
			err = fmt.Errorf("-%s 0 would run the default (%s: leave the flag out for that, or give another value", f.Name, def)
		}
	})
	o.LLCBytes = llcBytes(*llcMiB, *llcKiB)
	return c, err
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	c, err := parse(args, stderr)
	if err != nil {
		return err
	}
	if c.list {
		fmt.Fprintln(stdout, strings.Join(crow.Workloads(), "\n"))
		return nil
	}
	if c.listStds {
		fmt.Fprintf(stdout, "standards:    %s\n", strings.Join(crow.Standards(), ", "))
		fmt.Fprintf(stdout, "schedulers:   %s\n", strings.Join(crow.Schedulers(), ", "))
		fmt.Fprintf(stdout, "row policies: %s\n", strings.Join(crow.RowPolicies(), ", "))
		fmt.Fprintf(stdout, "mappings:     %s\n", strings.Join(crow.Mappings(), ", "))
		return nil
	}
	if c.traceOut != "" && c.compare {
		return errors.New("-trace-out traces a single run; it cannot be combined with -compare")
	}
	if c.traceOut != "" && c.traceCap <= 0 {
		return errors.New("-trace-cap must be positive")
	}

	stopProf, err := obs.StartProfiles(c.cpuProfile, c.memProfile, c.execTrace)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	// Reject unknown names (standard, scheduler, …) with the registry listing
	// up front, instead of failing one run of a comparison at a time.
	if err := c.opts.Validate(); err != nil {
		return err
	}

	if c.compare {
		cmp, err := compareParallel(ctx, c.opts, c.jobs, c.timeout, c.verbose, stderr)
		if err != nil {
			return err
		}
		if c.asJSON {
			return emitJSON(stdout, cmp)
		}
		printReport(stdout, cmp.Mech)
		fmt.Fprintf(stdout, "\nvs baseline:\n")
		fmt.Fprintf(stdout, "  weighted speedup:   %+.1f%%\n", 100*cmp.Speedup)
		fmt.Fprintf(stdout, "  DRAM energy ratio:  %.3f (%+.1f%%)\n", cmp.EnergyRatio, 100*(cmp.EnergyRatio-1))
		return nil
	}

	// The tracer rides the run context, not Options (whose key memoizes
	// runs): a traced simulation is the same simulation.
	var bundle *obs.Observers
	if c.traceOut != "" {
		bundle = &obs.Observers{TraceCapacity: c.traceCap}
		ctx = obs.With(ctx, bundle)
	}

	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if c.timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, c.timeout)
	}
	defer cancel()
	rep, err := crow.RunContext(runCtx, c.opts)
	if err != nil {
		return err
	}
	if bundle != nil {
		if err := writeTrace(c.traceOut, bundle.Tracer()); err != nil {
			return err
		}
		if t := bundle.Tracer(); t != nil {
			fmt.Fprintf(stderr, "crowsim: wrote %s (%d events, %d dropped)\n",
				c.traceOut, t.Len(), t.Dropped())
		}
	}
	if c.asJSON {
		if err := emitJSON(stdout, rep); err != nil {
			return err
		}
		if c.opts.Verify && rep.Violations > 0 {
			return errVerifyFailed
		}
		return nil
	}
	printReport(stdout, rep)
	if c.opts.Verify {
		if rep.Violations == 0 {
			fmt.Fprintln(stdout, "verification: ok (0 oracle violations)")
		} else {
			fmt.Fprintf(stdout, "verification: FAILED, %d violations\n", rep.Violations)
			counts := metrics.Counters(rep.ViolationCounts)
			for _, class := range counts.Names() {
				fmt.Fprintf(stdout, "  %s: %d\n", class, counts[class])
			}
			for _, s := range rep.ViolationSamples {
				fmt.Fprintf(stdout, "  sample: %s\n", s)
			}
			return errVerifyFailed
		}
	}
	return nil
}

// writeTrace exports the tracer's ring as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Tracer) error {
	if t == nil {
		return errors.New("trace-out: no tracer was attached (internal error)")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// compareParallel runs the mechanism, baseline, and (for multi-core options)
// alone-run simulations behind crow.Compare concurrently on an engine pool,
// then assembles the comparison from the memoized results.
func compareParallel(ctx context.Context, opts crow.Options, jobs int, timeout time.Duration, verbose bool, stderr io.Writer) (crow.Comparison, error) {
	popts := []engine.Option[crow.Report]{}
	if timeout > 0 {
		popts = append(popts, engine.WithTimeout[crow.Report](timeout))
	}
	if verbose {
		popts = append(popts, engine.WithObserver[crow.Report](progress(stderr)))
	}
	pool := engine.New(jobs, popts...)

	runs := crow.CompareRuns(opts)
	job := func(o crow.Options) (string, string, func(context.Context) (crow.Report, error)) {
		label := fmt.Sprintf("%s on %s", o.Mechanism, strings.Join(o.Workloads, "+"))
		return o.Key(), label, func(ctx context.Context) (crow.Report, error) {
			return crow.RunContext(ctx, o)
		}
	}
	if err := engine.All(ctx, pool, runs, job); err != nil {
		return crow.Comparison{}, err
	}
	reps := make([]crow.Report, len(runs))
	for i, o := range runs {
		key, label, fn := job(o)
		rep, err := pool.Do(ctx, key, label, fn) // cache hit: All already ran it
		if err != nil {
			return crow.Comparison{}, err
		}
		reps[i] = rep
	}
	return crow.CompareFrom(opts, reps)
}

// progress renders engine events as one stderr line each.
func progress(stderr io.Writer) engine.Observer {
	return func(e engine.Event) {
		switch e.Type {
		case engine.EventStarted:
			fmt.Fprintf(stderr, "  run   %s\n", e.Label)
		case engine.EventFinished:
			status := fmt.Sprintf("in %v", e.Duration.Round(time.Millisecond))
			if e.Err != nil {
				status = "FAILED: " + e.Err.Error()
			}
			fmt.Fprintf(stderr, "  done  %s %s\n", e.Label, status)
		}
	}
}

func printReport(w io.Writer, r crow.Report) {
	fmt.Fprintf(w, "mechanism: %s\n", r.Mechanism)
	for i := range r.IPC {
		fmt.Fprintf(w, "  core %d: IPC %.3f, LLC MPKI %.2f\n", i, r.IPC[i], r.MPKI[i])
	}
	fmt.Fprintf(w, "DRAM commands: ACT %d, ACT-t %d, ACT-c %d, RD %d, WR %d, REF %d\n",
		r.ACT, r.ACTt, r.ACTc, r.RD, r.WR, r.REF)
	fmt.Fprintf(w, "row-buffer hit rate: %.1f%%, read latency avg %.1f ns (p50 <= %.0f, p99 <= %.0f)\n",
		100*r.RowHitRate, r.AvgReadLatencyNs, r.ReadLatencyP50Ns, r.ReadLatencyP99Ns)
	if r.Hits+r.Misses > 0 {
		fmt.Fprintf(w, "CROW-table: hit rate %.1f%% (%d hits, %d misses), %d copies, %d evictions, %d restores\n",
			100*r.CROWTableHitRate, r.Hits, r.Misses, r.Copies, r.Evictions, r.RestoreOps)
	}
	if r.RefRemaps > 0 {
		fmt.Fprintf(w, "CROW-ref: %d activations redirected to copy rows\n", r.RefRemaps)
	}
	if r.HammerRemaps > 0 {
		fmt.Fprintf(w, "RowHammer: %d victim rows remapped\n", r.HammerRemaps)
	}
	if r.Mitigation != "" {
		fmt.Fprintf(w, "mitigation: %s (%d neighbour refreshes)\n", r.Mitigation, r.MitigationRefreshes)
	}
	if r.Flips > 0 || r.ShieldedFlips > 0 {
		fmt.Fprintf(w, "bit flips: %d on %d rows (%d shielded by remaps)", r.Flips, r.FlipVictimRows, r.ShieldedFlips)
		if len(r.FlipsByCore) > 0 {
			fmt.Fprintf(w, ", by tenant %v", r.FlipsByCore)
		}
		fmt.Fprintln(w)
	}
	e := r.EnergyNJ
	fmt.Fprintf(w, "DRAM energy: %.0f nJ (act/pre %.0f, rd %.0f, wr %.0f, refresh %.0f, background %.0f)\n",
		e.Total(), e.ActPre, e.Read, e.Write, e.Refresh, e.Background)
	if r.ChipAreaOverhead > 0 {
		fmt.Fprintf(w, "chip area overhead: %.2f%%, capacity overhead: %.2f%%\n",
			100*r.ChipAreaOverhead, 100*r.CapacityOverhead)
	}
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// llcBytes resolves the two LLC size flags: -llc-kib, when set, overrides
// the MiB-granular -llc so sub-MiB caches (the RowHammer lab's 64 KiB
// cache-flush-attack stand-in) are expressible from the command line.
func llcBytes(mib, kib int) int64 {
	if kib > 0 {
		return int64(kib) << 10
	}
	return int64(mib) << 20
}
