package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// readGolden loads one experiment's golden report, failing (not skipping) if
// it is missing — a missing file would silently shrink the matrix.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
	if err != nil {
		t.Fatalf("no golden file for %s (generate with -update): %v", name, err)
	}
	return want
}

// checkAgainstGoldens renders each experiment on the runner and compares the
// tables byte-for-byte against the golden files.
func checkAgainstGoldens(t *testing.T, r *Runner, exps []Experiment, combo string) {
	t.Helper()
	for _, e := range exps {
		tbl, err := e.Table(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := []byte(tbl.String()); !bytes.Equal(got, readGolden(t, e.Name)) {
			t.Errorf("%s at %s drifted from its golden report", e.Name, combo)
		}
	}
}

// TestGoldenReportsShardMatrix is the sharded half of the determinism matrix:
// the three per-standard experiments (sched on LPDDR4, ddr5, hbm2 — whose
// systems have 4, 2, and 8 channels) plus the RowHammer lab and the tenant
// study (whose flip model and mitigation state live per channel and merge at
// report time) re-execute at every (shards, workers) combination beyond the
// serial golden suite (shards=1, j∈{1,4} via TestGoldenReports) and must
// reproduce their golden reports byte-for-byte each time: the shards
// {1,2,max} × workers {1,4} grid the parallel tick loop promises. The full
// 26-experiment sweep at -shards 8 runs in CI's standards matrix, on runners
// with the cores for it.
//
// Shard counts are clamped to GOMAXPROCS: more channel goroutines than
// processors only measures the scheduler (the shards=8 sweep took ten times
// the serial one on two cores), and a combination the host cannot run in
// parallel proves nothing a smaller one does not. On a one-processor host
// every combination therefore takes the serial loop.
//
// Every combination builds a fresh runner and engine pool on purpose:
// sharding does not enter the memoization key (byte-identity is the reason
// it's allowed to share cache entries in production), so reusing a pool that
// already executed these runs serially would compare cached serial results
// against golden files and prove nothing about the parallel path.
func TestGoldenReportsShardMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded QuickScale matrix; skipped in -short")
	}
	exps, err := Select([]string{"sched", "ddr5", "hbm2", "hammerlab", "tenant"})
	if err != nil {
		t.Fatal(err)
	}
	combos := []struct{ shards, workers int }{
		{2, 1},
		{2, 4},
		{8, 1},
		{8, 4},
	}
	for _, c := range combos {
		t.Run(fmt.Sprintf("shards=%d/j=%d", c.shards, c.workers), func(t *testing.T) {
			shards := min(c.shards, runtime.GOMAXPROCS(0))
			r := NewRunner(QuickScale(), Workers(c.workers), Shards(shards))
			if err := r.Execute(PlanAll(r, exps)); err != nil {
				t.Fatal(err)
			}
			checkAgainstGoldens(t, r, exps, fmt.Sprintf("%s (%d shards run)", t.Name(), shards))
		})
	}
}
