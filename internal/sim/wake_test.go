package sim

import (
	"fmt"
	"testing"

	"crowdram/internal/chargecache"
	"crowdram/internal/core"
	"crowdram/internal/cpu"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
	"crowdram/internal/hammer"
	"crowdram/internal/retention"
	"crowdram/internal/tldram"
)

// These tests run whole simulations with both halves of the wake contract
// checking themselves. Controllers (ctrl.SetVerifyWake): every tick one sleeps
// through re-runs the scheduling pass and panics unless it is a no-op — no
// command, no completion due, no side effect, the same wake-up cycle again.
// Cores (cpu.SetVerifyAdvance): every jump is predicted on a copy, really
// ticked against a generator and a memory that panic when called, and panics
// unless every counter and ring index agrees. The goldens prove the
// event-driven system produces the same bytes; this proves each skipped cycle
// individually, on configurations the goldens do not reach.

// verifyWake turns both self-checks on for the systems the test builds.
func verifyWake(t *testing.T) {
	t.Helper()
	ctrl.SetVerifyWake(true)
	cpu.SetVerifyAdvance(true)
	t.Cleanup(func() {
		ctrl.SetVerifyWake(false)
		cpu.SetVerifyAdvance(false)
	})
}

func fixedProfile(cfg Config, weakPerSubarray int) *retention.Profile {
	return retention.FixedProfile(retention.Geometry{
		Channels: cfg.Channels, Ranks: cfg.Geo.Ranks, Banks: cfg.Geo.Banks,
		Subarrays: cfg.Geo.SubarraysPerBank(), RowsPerSubarray: cfg.Geo.RowsPerSubarray,
	}, weakPerSubarray, 7)
}

// wakeMechs are the mechanisms of the matrix, each with the copy rows its
// geometry needs. Together they cover every controller hook: plain activation
// plans, mechanism copies (crow-ref remaps, RAIDR row refreshes, crow-hammer
// victim copies), restore-before-evict, a cycle-dependent plan (ChargeCache),
// a doubled and a disabled refresh interval.
var wakeMechs = []struct {
	name     string
	copyRows int
	build    func(cfg Config) core.Mechanism
}{
	{"baseline", 0, func(cfg Config) core.Mechanism { return &core.Baseline{T: cfg.T} }},
	{"ideal-norefresh", 0, func(cfg Config) core.Mechanism { return &core.Ideal{T: cfg.T, NoRefresh: true} }},
	{"chargecache", 0, func(cfg Config) core.Mechanism { return chargecache.New(cfg.Channels, cfg.T, 128) }},
	{"tl-dram", 0, func(cfg Config) core.Mechanism { return tldram.New(cfg.Channels, cfg.Geo, cfg.T, 8) }},
	{"raidr", 0, func(cfg Config) core.Mechanism {
		return core.NewRAIDR(cfg.Channels, cfg.Geo, cfg.T, fixedProfile(cfg, 3))
	}},
	{"crow-cache", 8, func(cfg Config) core.Mechanism {
		m := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
		m.Cache = true
		return m
	}},
	{"crow-cache+ref", 8, func(cfg Config) core.Mechanism {
		m := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
		m.Cache, m.Ref = true, true
		m.LoadProfile(fixedProfile(cfg, 3))
		return m
	}},
	{"crow-cache-eager", 8, func(cfg Config) core.Mechanism {
		m := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
		m.Cache, m.EagerRestore = true, true
		return m
	}},
	{"crow-hammer", 8, func(cfg Config) core.Mechanism {
		m := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
		m.Cache = true
		m.HammerThreshold = 64
		return m
	}},
}

// runWake runs one two-core system — a memory-bound application beside one
// that leaves the channels idle for long stretches, so full queues, timeout
// closes and idle skips all occur — and fails on a truncated run.
func runWake(t *testing.T, cfg Config, mech core.Mechanism, apps ...string) Result {
	t.Helper()
	res := New(cfg, mech, appGens(t, 1, apps...)).Run()
	if res.Truncated {
		t.Error("run was truncated")
	}
	if res.DRAM.Activations() == 0 {
		t.Error("run issued no activations")
	}
	return res
}

// TestWakeSkipIsNoOp covers mechanism × standard, rotating the scheduler, row
// policy and refresh policy through the cells so that every (scheduler, row
// policy, refresh policy) triple occurs and each mechanism meets each value
// of each axis.
func TestWakeSkipIsNoOp(t *testing.T) {
	verifyWake(t)
	// ctrl's TestPolicyNamesSorted pins the refresh policy names.
	scheds, rows, refs := ctrl.SchedulerNames(), ctrl.RowPolicyNames(), []string{"allbank", "perbank", "samebank"}
	stds := dram.StandardNames()
	if testing.Short() {
		stds = stds[:2]
	}
	cell := 0
	for _, m := range wakeMechs {
		for _, stdName := range stds {
			std := mustStandard(t, stdName)
			sched := scheds[cell%len(scheds)]
			row := rows[cell/len(scheds)%len(rows)]
			ref := refs[cell/(len(scheds)*len(rows))%len(refs)]
			cell++
			name := fmt.Sprintf("%s/%s/%s/%s/%s", m.name, std.Name, sched, row, ref)
			t.Run(name, func(t *testing.T) {
				cfg := DefaultFor(std, m.copyRows, dram.Density8Gb, 64)
				cfg.WarmupInsts, cfg.MeasureInsts = 2_000, 12_000
				cfg.Ctrl.Scheduler, cfg.Ctrl.RowPolicy, cfg.Ctrl.Refresh = sched, row, ref
				cfg.Ctrl.MaxPostpone = cell % 3 * 4 // 0, 4, 8: no, some and full elastic postponement
				runWake(t, cfg, m.build(cfg), "mcf", "gcc")
			})
		}
	}
}

// TestWakeSkipIsNoOpMASA repeats the check with subarray-level parallelism on
// and off: many open rows per bank under the open-page policy, where the
// per-bank open-row tracking does the work the subarray scans used to.
func TestWakeSkipIsNoOpMASA(t *testing.T) {
	verifyWake(t)
	for _, masa := range []bool{false, true} {
		for _, open := range []bool{false, true} {
			t.Run(fmt.Sprintf("masa=%v/open=%v", masa, open), func(t *testing.T) {
				cfg := DefaultFor(lpddr4, 0, dram.Density8Gb, 64)
				cfg.WarmupInsts, cfg.MeasureInsts = 2_000, 15_000
				cfg.Ctrl.MASA = masa
				if open {
					cfg.Ctrl.RowPolicy = "open"
				}
				runWake(t, cfg, &core.Baseline{T: cfg.T}, "mcf", "lbm", "gcc")
			})
		}
	}
}

// TestWakeSkipIsNoOpHammerMitigations runs a double-sided attack beside a
// victim under each registered mitigation: PARA's neighbour refreshes ride
// the mechanism-copy path (activate, hold to full restoration, precharge),
// refresh-scale divides the refresh interval, crow-hammer remaps victims.
func TestWakeSkipIsNoOpHammerMitigations(t *testing.T) {
	verifyWake(t)
	for _, mit := range hammer.MitigationNames() {
		for _, inner := range []string{"baseline", "crow-cache"} {
			if mit == "crow-hammer" && inner == "baseline" {
				continue // needs a CROW substrate
			}
			t.Run(mit+"/"+inner, func(t *testing.T) {
				copyRows := 0
				if inner == "crow-cache" {
					copyRows = 8
				}
				cfg := DefaultFor(lpddr4, copyRows, dram.Density8Gb, 64)
				cfg.WarmupInsts, cfg.MeasureInsts = 2_000, 15_000
				cfg.LLC.SizeBytes = 64 << 10 // the attack must reach DRAM
				cfg.Translation = "rowstripe"
				cfg.FlipModel = &hammer.Config{Seed: 1, HCFirst: 512}
				var mech core.Mechanism = &core.Baseline{T: cfg.T}
				if inner == "crow-cache" {
					m := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
					m.Cache = true
					mech = m
				}
				mech, err := hammer.NewMitigation(mit, hammer.MitConfig{
					Channels: cfg.Channels, Geo: cfg.Geo, Seed: 1,
					ParaPerMille: 100, RefreshScale: 4, HammerThreshold: 64,
				}, mech)
				if err != nil {
					t.Fatal(err)
				}
				runWake(t, cfg, mech, "hammer-double", "mcf")
			})
		}
	}
}

func mustStandard(t *testing.T, name string) *dram.Standard {
	t.Helper()
	std, err := dram.StandardByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return std
}
