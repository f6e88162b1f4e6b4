package crow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"crowdram/internal/ctrl"
)

var update = flag.Bool("update", false, "rewrite crow/testdata/scheduler_parity.json from this build's reports")

// parityRuns are small runs chosen for the scheduler decisions the goldens
// and the benchmark workloads do not reach: every scheduler, row policy and
// refresh policy away from Table 2's, MASA, two ranks with their own data
// buses and their own refresh postponement, prefetches in the queues, every
// mechanism's activation plan, the mechanism-copy path, and restore-before-evict
// with a shared CROW-table — the one configuration where a restore activation
// lands in another subarray than the request that asked for it. Refresh windows are shortened so refreshes,
// postponement and catch-up all occur inside 30 K instructions.
var parityRuns = []struct {
	name string
	o    Options
}{
	{"eager-share4", Options{Mechanism: Cache, EagerRestore: true, TableShareGroup: 4, CopyRows: 1,
		Workloads: []string{"mcf", "omnetpp", "stream-copy", "libq"}}},
	{"eager-share4-64g", Options{Mechanism: Cache, EagerRestore: true, TableShareGroup: 4, CopyRows: 2,
		Workloads: []string{"mcf", "lbm", "milc", "soplex"}, DensityGbit: 64}},
	{"eager-share16", Options{Mechanism: Cache, EagerRestore: true, TableShareGroup: 16,
		Workloads: []string{"mcf", "lbm", "milc", "soplex"}, RefreshWindowMS: 16}},
	{"eager-share16-64g", Options{Mechanism: Cache, EagerRestore: true, TableShareGroup: 16, CopyRows: 2,
		Workloads: []string{"mcf", "lbm", "omnetpp", "gcc"}, DensityGbit: 64}},
	{"salp-masa", Options{Mechanism: SALP, SALPSubarrays: 8, Workloads: []string{"mcf", "lbm", "gcc"},
		RefreshWindowMS: 16}},
	{"salp-masa-open", Options{Mechanism: SALP, RowPolicy: "open", Workloads: []string{"mcf", "lbm"},
		RefreshWindowMS: 8}},
	{"fcfs", Options{Mechanism: Cache, Scheduler: "fcfs", Workloads: []string{"mcf", "lbm"}, RefreshWindowMS: 8}},
	{"frfcfs", Options{Mechanism: CacheRef, Scheduler: "frfcfs", Workloads: []string{"lbm", "mcf"},
		RefreshWindowMS: 8}},
	{"closed", Options{Mechanism: Cache, RowPolicy: "closed", Workloads: []string{"mcf", "stream-copy"},
		RefreshWindowMS: 8}},
	{"open", Options{Mechanism: Cache, RowPolicy: "open", Workloads: []string{"mcf", "stream-copy"},
		RefreshWindowMS: 8}},
	{"perbank-postpone8", Options{Mechanism: CacheRef, PerBankRefresh: true, RefreshPostpone: 8,
		RefreshWindowMS: 8, Workloads: []string{"mcf", "lbm"}}},
	{"samebank-postpone8", Options{Mechanism: Cache, Standard: "ddr5", RefreshPostpone: 8,
		RefreshWindowMS: 4, Workloads: []string{"mcf", "lbm"}}},
	{"allbank-postpone8", Options{Mechanism: Cache, RefreshPostpone: 8, RefreshWindowMS: 16,
		DensityGbit: 16, Workloads: []string{"mcf", "lbm"}}},
	{"prefetch", Options{Mechanism: Cache, Prefetch: true, Workloads: []string{"lbm", "libq", "mcf"},
		RefreshWindowMS: 8}},
	{"hbm2", Options{Mechanism: CacheRef, Standard: "hbm2", Workloads: []string{"mcf", "lbm", "omnetpp", "gcc"}}},
	{"hbm2-postpone8", Options{Mechanism: CacheRef, Standard: "hbm2", RefreshPostpone: 8, RefreshWindowMS: 4,
		Workloads: []string{"mcf", "lbm", "omnetpp", "gcc"}}},
	{"crow-hammer", Options{Mechanism: Hammer, HammerThreshold: 64, Translation: "rowstripe",
		LLCBytes: 64 << 10, Workloads: []string{"hammer-double", "mcf"}}},
	{"para", Options{Mechanism: Cache, Mitigation: "para", ParaPerMille: 100, Translation: "rowstripe",
		LLCBytes: 64 << 10, Workloads: []string{"hammer-double", "mcf"}}},
	{"raidr", Options{Mechanism: RAIDR, RefreshWindowMS: 8, Workloads: []string{"mcf", "lbm"}}},
	{"tl-dram", Options{Mechanism: TLDRAM, Workloads: []string{"mcf", "lbm"}, RefreshWindowMS: 16}},
	{"chargecache", Options{Mechanism: ChargeCache, Workloads: []string{"mcf", "lbm"}, RefreshWindowMS: 16}},
}

// TestSchedulerParity pins each parityRuns report to the SHA-256 of its JSON
// encoding in testdata/scheduler_parity.json. The table was generated on the
// scheduler as it stood before the subarray index (PR 20's parent), so a
// change to the scheduling pass that claims "same decisions, same order" has
// the parent's behaviour to answer to without the parent's code. Regenerate
// only for a deliberate model change:
//
//	go test ./crow -run TestSchedulerParity -update
//
// The runs execute with the controller's self-checks on (ctrl.SetVerifyWake),
// so every shortcut of the pass is also re-derived the long way on exactly
// these configurations.
func TestSchedulerParity(t *testing.T) {
	ctrl.SetVerifyWake(true)
	defer ctrl.SetVerifyWake(false)
	path := filepath.Join("testdata", "scheduler_parity.json")
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no parity table (generate with -update): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(parityRuns) {
			t.Errorf("parity table has %d rows for %d runs", len(want), len(parityRuns))
		}
	}
	got := map[string]string{}
	for _, p := range parityRuns {
		t.Run(p.name, func(t *testing.T) {
			o := p.o
			o.MeasureInsts, o.WarmupInsts = 30_000, 3_000
			rep, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Truncated || rep.ACT+rep.ACTt+rep.ACTc == 0 {
				t.Fatalf("run did no work: truncated=%v, no activations", rep.Truncated)
			}
			if o.EagerRestore && rep.RestoreOps == 0 {
				t.Error("no restore-before-evict activation occurred: the row pins nothing about it")
			}
			out, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out)
			got[p.name] = hex.EncodeToString(sum[:])
			if !*update && got[p.name] != want[p.name] {
				t.Errorf("report digest %s, parity table says %s: the scheduler took a different decision somewhere", got[p.name], want[p.name])
			}
		})
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
