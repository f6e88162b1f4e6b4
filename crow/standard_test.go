package crow

import (
	"slices"
	"strings"
	"testing"

	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
)

// TestRegistryHelpers pins the public name listings the CLIs print, and the
// two properties every list must keep when a row is added to its table (what
// the duplicate-registration panics used to guard): strictly increasing, so
// sorted and duplicate-free, and containing the name an empty option resolves
// to.
func TestRegistryHelpers(t *testing.T) {
	for _, c := range []struct {
		kind string
		got  []string
		want string
		def  string
	}{
		{"Standards", Standards(), "ddr4,ddr5,hbm2,lpddr4,lpddr5", "lpddr4"},
		{"Mitigations", Mitigations(), "crow-hammer,none,para,refresh-scale", "none"},
		{"Translations", Translations(), "hash,rowstripe", "hash"},
		{"Schedulers", Schedulers(), "fcfs,frfcfs,frfcfs-cap", ctrl.DefaultScheduler},
		{"RowPolicies", RowPolicies(), "closed,open,timeout", ctrl.DefaultRowPolicy},
		{"Mappings", Mappings(), "robarococh,rocobarach", dram.DefaultMapping},
	} {
		if got := strings.Join(c.got, ","); got != c.want {
			t.Errorf("%s() = %s, want %s", c.kind, got, c.want)
		}
		for i := 1; i < len(c.got); i++ {
			if c.got[i-1] >= c.got[i] {
				t.Errorf("%s(): %q before %q, want strictly increasing", c.kind, c.got[i-1], c.got[i])
			}
		}
		if !slices.Contains(c.got, c.def) {
			t.Errorf("%s() = %v lacks the default %q", c.kind, c.got, c.def)
		}
	}
}

// TestStandardDefaultsInKey checks the per-standard defaulting that feeds
// the memoization key: the refresh window follows the standard, and the
// explicit policy names land in the canonical Options.
func TestStandardDefaultsInKey(t *testing.T) {
	for _, c := range []struct {
		std    string
		window string
	}{
		{"lpddr4", `"RefreshWindowMS":64`},
		{"ddr4", `"RefreshWindowMS":64`},
		{"ddr5", `"RefreshWindowMS":32`},
		{"hbm2", `"RefreshWindowMS":32`},
		{"lpddr5", `"RefreshWindowMS":32`},
	} {
		key := Options{Standard: c.std}.Key()
		if !strings.Contains(key, c.window) {
			t.Errorf("%s key %s lacks %s", c.std, key, c.window)
		}
	}
	// An explicit window wins over the standard default.
	if key := (Options{Standard: "ddr5", RefreshWindowMS: 128}).Key(); !strings.Contains(key, `"RefreshWindowMS":128`) {
		t.Errorf("explicit window lost: %s", key)
	}
	// The zero Options and the spelled-out defaults are the same run.
	explicit := Options{Standard: "lpddr4", Scheduler: "frfcfs-cap", RowPolicy: "timeout", Mapping: "robarococh"}
	if (Options{}).Key() != explicit.Key() {
		t.Error("zero Options and explicit defaults must share a key")
	}
	// The two public booleans reach the controller as policy names, and
	// nothing below crow.build knows them by any other.
	for _, c := range []struct {
		o        Options
		row, ref string
	}{
		{Options{}, "timeout", "allbank"},
		{Options{PerBankRefresh: true}, "timeout", "perbank"},
		{Options{Standard: "ddr5"}, "timeout", "samebank"},
		{Options{Standard: "ddr5", PerBankRefresh: true}, "timeout", "perbank"},
		{Options{Mechanism: SALP, SALPOpenPage: true}, "open", "allbank"},
		{Options{Mechanism: SALP, SALPOpenPage: true, RowPolicy: "closed"}, "closed", "allbank"},
	} {
		sys, err := construct(c.o)
		if err != nil {
			t.Fatal(err)
		}
		row, ref := sys.Ctrls[0].Cfg.RowPolicy, sys.Ctrls[0].Cfg.Refresh
		sys.Release()
		if row != c.row || ref != c.ref {
			t.Errorf("%+v: policies %s/%s, want %s/%s", c.o, row, ref, c.row, c.ref)
		}
	}
}

// TestCrossStandardVerifyClean is the refactor's acceptance test: CROW-cache
// and CROW-ref run on DDR5 and HBM2 selected purely through crow.Options,
// with the cross-layer oracle attached and silent. The refresh-deadline
// monitor in particular retimes itself per standard (32 ms windows, REFsb /
// REFpb granularity), so a mis-threaded cycle time or refresh policy shows
// up here as violations.
func TestCrossStandardVerifyClean(t *testing.T) {
	for _, std := range []string{"ddr4", "ddr5", "hbm2", "lpddr5"} {
		for _, m := range []Mechanism{Cache, Ref} {
			t.Run(std+"/"+string(m), func(t *testing.T) {
				rep, err := Run(Options{
					Mechanism: m,
					Standard:  std,
					Workloads: []string{"mcf"},
					Verify:    true,
					// Long enough that even the fastest standard (DDR4's
					// 16 banks run mcf past IPC 1) crosses a few tREFI.
					MeasureInsts: 60_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Violations != 0 {
					t.Fatalf("oracle violations on %s: %v\nsamples: %v",
						std, rep.ViolationCounts, rep.ViolationSamples)
				}
				if len(rep.IPC) != 1 || rep.IPC[0] <= 0 {
					t.Fatalf("no forward progress: IPC %v", rep.IPC)
				}
				if rep.Refreshes == 0 {
					t.Fatal("no refreshes issued")
				}
			})
		}
	}
}

// TestNonDefaultPoliciesVerifyClean drives the policy tables end to end
// on every standard: an uncapped scheduler with an open-page policy and the
// bank-interleaved mapping must still satisfy the oracle.
func TestNonDefaultPoliciesVerifyClean(t *testing.T) {
	for _, std := range []string{"lpddr4", "ddr4", "ddr5", "hbm2", "lpddr5"} {
		t.Run(std, func(t *testing.T) {
			rep, err := Run(Options{
				Standard:     std,
				Scheduler:    "frfcfs",
				RowPolicy:    "open",
				Mapping:      "rocobarach",
				Workloads:    []string{"lbm"},
				Verify:       true,
				MeasureInsts: 20_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Violations != 0 {
				t.Fatalf("oracle violations: %v\nsamples: %v", rep.ViolationCounts, rep.ViolationSamples)
			}
		})
	}
}
