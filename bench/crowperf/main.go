// Command crowperf is the repository's benchmark: it builds crowbench,
// crowsim and crowserve from the checkout, runs the five workloads through
// them, checks their outputs and prints every metric by name with its unit.
//
//	crowperf                                   # all workloads, untraced then traced
//	crowperf -runs 5 -out A.json               # five untraced sets and one traced, saved
//	crowperf -workload mem-bound -seed 3       # one workload, one seed, end-to-end metrics
//	crowperf -workload serve-open -trace 1     # one workload's per-layer metrics
//	crowperf -compare A.json B.json            # two saved sets against the bounds
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}, as BENCHMARK.json's driver
// reads it. Run it from a checkout (bash bench/run.sh, or go run -C bench
// ./crowperf); see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"crowdram/bench/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload: "+workloadNames()+" (default: all)")
		seed     = flag.Int64("seed", 1, "workload seed; passed to the binaries, drives serve-open's arrivals and key order")
		seconds  = flag.Float64("seconds", 16, "time budget of one run's measured section")
		trace    = flag.String("trace", "", "0: end-to-end metrics from the untraced run; 1: per-layer metrics from the traced run (default 0 with -workload, both without)")
		runs     = flag.Int("runs", 1, "without -workload: repeat the untraced set this many times, at seeds seed, seed+1, ...")
		out      = flag.String("out", "", "without -workload: write every run, with provenance, to this file")
		compare  = flag.Bool("compare", false, "compare two files written with -out: crowperf -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "crowperf: -compare takes two files: crowperf -compare A.json B.json")
			return 2
		}
		a, err := harness.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "crowperf:", err)
			return 2
		}
		b, err := harness.ReadFile(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "crowperf:", err)
			return 2
		}
		if problems := harness.Compare(os.Stdout, a, b); problems > 0 {
			fmt.Printf("%d rows worse, unresolved, failed or not identical\n", problems)
			return 1
		}
		fmt.Println("every row same or better, no failures, simulated results identical")
		return 0
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "crowperf: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "crowperf: -seconds must be at least 1")
		return 2
	}
	switch *trace {
	case "", "0", "1":
	default:
		fmt.Fprintln(os.Stderr, "crowperf: -trace takes 0 or 1")
		return 2
	}

	// An interrupt cancels the run; children are stopped and reaped, and
	// temporary directories removed, on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowperf:", err)
		return 2
	}
	env, err := harness.NewEnv(cwd, "", os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *workload != "" {
		if !harness.KnownWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "crowperf: unknown workload %q; the workloads are %s\n", *workload, workloadNames())
			return 2
		}
		res, info := env.Run(ctx, *workload, *seed, *seconds, *trace == "1")
		harness.PrintRun(os.Stdout, harness.RunRecord{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == "1", Result: res, Info: info,
		})
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crowperf:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	file := harness.File{Schema: harness.Schema}
	file.Provenance, file.Noisy = env.Provenance()
	if file.Noisy {
		fmt.Printf("note: 1-minute load average %.2f on %d CPUs at start: this set is marked noisy\n", file.Provenance.LoadAvg1, env.NProc)
	}
	ok := true
	record := func(name string, s int64, traced bool) {
		res, info := env.Run(ctx, name, s, *seconds, traced)
		rec := harness.RunRecord{Workload: name, Seed: s, Seconds: *seconds, Trace: traced, Result: res, Info: info}
		harness.PrintRun(os.Stdout, rec)
		file.Runs = append(file.Runs, rec)
		ok = ok && res.Correct
	}
	if *trace != "1" {
		for i := 0; i < *runs; i++ {
			for _, w := range harness.Workloads {
				record(w.Name, *seed+int64(i), false)
			}
		}
	}
	if *trace != "0" {
		for _, w := range harness.Workloads {
			record(w.Name, *seed, true)
		}
	}
	harness.Summarise(os.Stdout, file)
	if *out != "" {
		if err := harness.WriteFile(*out, file); err != nil {
			fmt.Fprintln(os.Stderr, "crowperf:", err)
			return 1
		}
	}
	if !ok {
		fmt.Println("FAILED: at least one check failed; see the FAILED lines above")
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(harness.Workloads))
	for i, w := range harness.Workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
