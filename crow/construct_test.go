package crow

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Runs in one process share two things since construction became cheap: the
// LLC line array a finished run hands to the next, and the memoized prefill
// images (internal/cache). These tests pin that neither can reach a result,
// and that construction stays cheap.

// freshRunEnv carries one run's options to a child test process.
const freshRunEnv = "CROW_TEST_FRESH_RUN"

// TestFreshProcessRun is the child half of runInFreshProcess: it runs the
// options in the environment and prints the report. Without the variable it
// is not a test.
func TestFreshProcessRun(t *testing.T) {
	spec := os.Getenv(freshRunEnv)
	if spec == "" {
		t.Skip("helper for TestRecycledRunsMatchFreshProcesses")
	}
	o, err := DecodeOptions([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout.WriteString("REPORT " + string(out) + "\n")
}

// runInFreshProcess runs o in a new process — empty pool, empty memo — and
// returns its report.
func runInFreshProcess(t *testing.T, o Options) Report {
	t.Helper()
	spec, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFreshProcessRun$", "-test.v")
	cmd.Env = append(os.Environ(), freshRunEnv+"="+string(spec))
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child run: %v\n%s", err, out)
	}
	for _, ln := range strings.Split(string(out), "\n") {
		if enc, ok := strings.CutPrefix(ln, "REPORT "); ok {
			var rep Report
			if err := json.Unmarshal([]byte(enc), &rep); err != nil {
				t.Fatal(err)
			}
			return rep
		}
	}
	t.Fatalf("child printed no report:\n%s", out)
	return Report{}
}

// recycleCases are three LLC sizes, so each run below finds the array of a
// different size (or, for the last, of its own) waiting: A 8 MiB, B 32 MiB,
// C 64 KiB.
func recycleCases() (a, b, c Options) {
	a = fast(Options{Mechanism: Cache, Workloads: []string{"mcf"}})
	b = fast(Options{Mechanism: CacheRef, Workloads: []string{"lbm"}, DensityGbit: 64, LLCBytes: 32 << 20})
	c = fast(Options{Mechanism: Cache, Workloads: []string{"soplex"}, LLCBytes: 64 << 10})
	return
}

// TestRecycledRunsMatchFreshProcesses: A → B → C → A in one process, each
// run building on what the last released, must report what four new
// processes report. The JSON round trip is exact (shortest-representation
// floats), so the reports compare with DeepEqual.
func TestRecycledRunsMatchFreshProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("starts four child processes")
	}
	a, b, c := recycleCases()
	for i, o := range []Options{a, b, c, a} {
		got, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		// Through JSON as well, so both sides have the same nil-vs-empty
		// slices.
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		var inProc Report
		if err := json.Unmarshal(enc, &inProc); err != nil {
			t.Fatal(err)
		}
		if want := runInFreshProcess(t, o); !reflect.DeepEqual(inProc, want) {
			t.Errorf("run %d (%s, LLC %d): in-process report differs from a new process's\n got %+v\nwant %+v",
				i, o.Mechanism, o.LLCBytes, inProc, want)
		}
	}
}

// TestInterleavedSizesShareThePool: two goroutines alternating A and B, out
// of step, trade arrays of two sizes through the pool and draw two images
// from the memo at once (under -race in CI). Every report must equal the
// sequential one.
func TestInterleavedSizesShareThePool(t *testing.T) {
	a, b, _ := recycleCases()
	opts := [2]Options{a, b}
	var want [2]Report
	for i, o := range opts {
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (g + i) % 2
				got, err := Run(opts[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d, run %d: report differs from the sequential one", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// tinyRun is construction and little else: the shape crowperf's
// sim.setup_ms / sim.setup_allocs time.
func tinyRun() Options {
	return Options{Mechanism: Cache, Workloads: []string{"mcf"}, MeasureInsts: 1, WarmupInsts: 1}
}

// TestConstructionStaysCheap: building a system was 20 756 allocations when
// every LLC set was its own slice, and 4 319 with one array while the CROW
// table still allocated its 4 096 sets up front; it is about 220 now that a
// set is allocated by its first write. The ceiling leaves room for incidental
// changes, not for a per-set allocation to come back.
func TestConstructionStaysCheap(t *testing.T) {
	run := func() {
		if _, err := RunContext(context.Background(), tinyRun()); err != nil {
			t.Fatal(err)
		}
	}
	run() // draws the prefill image
	if allocs := testing.AllocsPerRun(5, run); allocs > 900 {
		t.Errorf("a 1-instruction run allocates %.0f times, ceiling 900", allocs)
	}
}

// allocatedBy returns the bytes f allocates, every goroutine counted; no
// test of this package runs in parallel with another.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCancelledRunReturnsItsLines: a run abandoned at its first context poll
// must still hand its LLC array on. The next run shows it: with a 32 MiB LLC
// the array is 8 MiB, and a run that found none waiting would allocate it.
func TestCancelledRunReturnsItsLines(t *testing.T) {
	o := tinyRun()
	o.LLCBytes = 32 << 20
	const slab = 32 << 20 / 64 * 16 // lines × sizeof(line)
	run := func(ctx context.Context) error {
		_, err := RunContext(ctx, o)
		return err
	}
	if err := run(context.Background()); err != nil { // draws the image, leaves an array
		t.Fatal(err)
	}
	if got := allocatedBy(func() { run(context.Background()) }); got > slab/2 {
		t.Fatalf("a run after a completed one allocates %d bytes: the array was not recycled", got)
	}
	long := o
	long.MeasureInsts = 10_000_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, long); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if got := allocatedBy(func() { run(context.Background()) }); got > slab/2 {
		t.Errorf("a run after a cancelled one allocates %d bytes: the cancelled run kept its array", got)
	}
}
