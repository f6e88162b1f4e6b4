// Command crowbench regenerates the paper's tables and figures (see the
// per-experiment index in DESIGN.md).
//
// Examples:
//
//	crowbench -exp table1,fig5,fig7          # analytic experiments (instant)
//	crowbench -exp fig8 -insts 1000000        # scale up a simulation figure
//	crowbench -exp all -j 8                   # everything, 8 runs in flight
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"crowdram/crow"
	"crowdram/internal/engine"
	"crowdram/internal/exp"
	"crowdram/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crowbench:", err)
		os.Exit(1)
	}
}

// expNames lists the registry's experiment names for the -exp help text.
func expNames() []string {
	var names []string
	for _, e := range exp.Experiments() {
		names = append(names, e.Name)
	}
	return names
}

func run() error {
	var (
		which   = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(expNames(), ",")+", or 'all' / 'analytic' / 'sim' / 'ablations'")
		asJSON  = flag.Bool("json", false, "emit results as a JSON array of tables")
		insts   = flag.Int64("insts", 300_000, "measured instructions per core")
		mixes   = flag.Int("mixes", 3, "four-core mixes per workload group")
		apps    = flag.String("apps", "", "comma-separated subset of single-core apps (default: full suite)")
		seed    = flag.Int64("seed", 1, "random seed")
		jobs    = flag.Int("j", 1, "max simulations in flight (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 0, "per-simulation wall-clock limit (0 = none)")
		verify  = flag.Bool("verify", false, "run the correctness oracle alongside every simulation; violations fail the run")
		verbose = flag.Bool("v", false, "print progress per simulation run")

		storeDir   = flag.String("store", "", "persist results to this directory; reruns at the same scale skip completed simulations (empty = memory only)")
		storeMaxMB = flag.Int64("store-max-mb", 0, "on-disk cap for -store in MiB; least-recently-used results are evicted (0 = unbounded)")

		cpuProfile = flag.String("cpuprofile", "", "write a Go CPU profile of the sweep")
		memProfile = flag.String("memprofile", "", "write a Go heap profile at exit")
		execTrace  = flag.String("exectrace", "", "write a Go runtime execution trace")
	)
	flag.Parse()

	scale := exp.Scale{Insts: *insts, Warmup: *insts / 10, MixesPerGroup: *mixes, Seed: *seed}
	if *apps != "" {
		scale.SingleApps = strings.Split(*apps, ",")
	}
	if err := scale.Validate(); err != nil {
		return err
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "crowbench:", perr)
		}
	}()

	sel, err := exp.Select(strings.Split(*which, ","))
	if err != nil {
		return err
	}

	// Ctrl-C cancels in-flight simulations instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	popts := []engine.Option[crow.Report]{engine.WithTimeout[crow.Report](*timeout)}
	if *storeDir != "" {
		st, err := exp.OpenStore(*storeDir, *storeMaxMB<<20)
		if err != nil {
			return fmt.Errorf("open result store: %w", err)
		}
		if stats := st.Stats(); *verbose {
			fmt.Fprintf(os.Stderr, "  [result store %s: %d results, %.1f MiB]\n",
				*storeDir, stats.Files, float64(stats.Bytes)/(1<<20))
		}
		popts = append(popts, engine.WithBacking[crow.Report](st))
	}
	ropts := []exp.RunnerOption{exp.UsePool(engine.New(*jobs, popts...)), exp.WithContext(ctx)}
	if *verify {
		ropts = append(ropts, exp.Verify())
	}
	if *verbose {
		ropts = append(ropts, exp.Observe(progress))
	}
	r := exp.NewRunner(scale, ropts...)

	// Plan/execute first: every simulation any selected experiment needs
	// runs here, concurrently up to -j, deduplicated across experiments.
	// The reduce loop below then assembles tables from the warm cache.
	plan := exp.PlanAll(r, sel)
	if len(plan) > 0 && *verbose {
		fmt.Fprintf(os.Stderr, "  [%d planned runs, %d workers]\n", len(plan), r.Workers())
	}
	start := time.Now()
	if err := r.Execute(plan); err != nil {
		return err
	}
	if len(plan) > 0 && *verbose {
		fmt.Fprintf(os.Stderr, "  [plan executed in %v]\n", time.Since(start).Round(time.Millisecond))
	}

	var collected []exp.Table
	for _, e := range sel {
		start := time.Now()
		t, err := e.Table(r)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if *asJSON {
			collected = append(collected, t)
		} else {
			fmt.Println(t)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "  [%s assembled in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			return err
		}
	}
	return nil
}

// progress renders engine events as one stderr line each.
func progress(e engine.Event) {
	switch e.Type {
	case engine.EventStarted:
		fmt.Fprintf(os.Stderr, "  run   %s\n", e.Label)
	case engine.EventFinished:
		status := fmt.Sprintf("in %v", e.Duration.Round(time.Millisecond))
		if e.Err != nil {
			status = "FAILED: " + e.Err.Error()
		}
		fmt.Fprintf(os.Stderr, "  done  %s %s (%d pending)\n", e.Label, status, e.Pending)
	case engine.EventCacheHit:
		fmt.Fprintf(os.Stderr, "  hit   %s\n", e.Label)
	case engine.EventStoreHit:
		fmt.Fprintf(os.Stderr, "  store %s\n", e.Label)
	}
}
