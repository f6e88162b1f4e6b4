package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"crowdram/internal/cpu"
	"crowdram/internal/ctrl"
)

var update = flag.Bool("update", false, "rewrite the golden experiment reports under testdata/golden/")

// TestGoldenReports renders every registered experiment at QuickScale and
// compares the rendered tables byte-for-byte against the golden files under
// testdata/golden/. The engine memoizes deterministically, so the output is
// identical at any worker count; any byte of drift is a behavior change that
// must be either fixed or consciously accepted by regenerating the goldens
// with:
//
//	go test ./internal/exp -run TestGoldenReports -update
//
// The sweep runs with both self-checks of the wake contract on: every tick a
// controller sleeps through re-runs its scheduling pass and panics unless it
// was a no-op, and every jump of a core is really ticked and compared, so the
// goldens are reproduced and every skipped cycle of all 26 experiments is
// checked in the same run. The correctness oracle watches every run too: one
// violation in any of them fails its run, and with it the sweep.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regression runs the full QuickScale sweep; skipped in -short")
	}
	ctrl.SetVerifyWake(true)
	defer ctrl.SetVerifyWake(false)
	cpu.SetVerifyAdvance(true)
	defer cpu.SetVerifyAdvance(false)
	r := NewRunner(QuickScale(), Workers(4), Verify())
	if err := r.Execute(PlanAll(r, Experiments())); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			tbl, err := e.Table(r)
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(tbl.String())
			path := filepath.Join("testdata", "golden", e.Name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file for %s (generate with -update): %v", e.Name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from its golden report.\n--- golden ---\n%s\n--- got ---\n%s",
					e.Name, want, got)
			}
		})
	}
}
