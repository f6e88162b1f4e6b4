// Package crow is the public API of the CROW reproduction: a configurable
// cycle-accurate simulation of the Copy-Row DRAM substrate (Hassan et al.,
// ISCA 2019) together with the mechanisms built on it (CROW-cache, CROW-ref,
// RowHammer mitigation) and the baselines the paper compares against
// (conventional DRAM, TL-DRAM, SALP-MASA).
//
// The 30-second tour:
//
//	report, err := crow.Run(crow.Options{
//		Mechanism: crow.CacheRef,
//		Workloads: []string{"mcf", "lbm", "povray", "gcc"},
//	})
//
// runs a four-core simulation of the combined CROW-cache + CROW-ref
// configuration and reports IPC, DRAM energy, and CROW-table statistics.
// Compare runs a mechanism against the conventional-DRAM baseline and
// computes weighted speedup and energy savings the way the paper does.
package crow

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"crowdram/internal/chargecache"
	"crowdram/internal/circuit"
	"crowdram/internal/core"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
	"crowdram/internal/hammer"
	"crowdram/internal/metrics"
	"crowdram/internal/obs"
	"crowdram/internal/retention"
	"crowdram/internal/salp"
	"crowdram/internal/sim"
	"crowdram/internal/tldram"
	"crowdram/internal/trace"
)

// Mechanism selects the memory-system configuration to simulate.
type Mechanism string

// Available mechanisms.
const (
	// Baseline is conventional LPDDR4 (Table 2).
	Baseline Mechanism = "baseline"
	// Cache is CROW-cache (Section 4.1).
	Cache Mechanism = "crow-cache"
	// Ref is CROW-ref (Section 4.2).
	Ref Mechanism = "crow-ref"
	// CacheRef combines CROW-cache and CROW-ref (Section 8.3).
	CacheRef Mechanism = "crow-cache+ref"
	// Hammer is the RowHammer mitigation (Section 4.3).
	Hammer Mechanism = "crow-hammer"
	// IdealCache is a hypothetical CROW-cache with a 100 % hit rate.
	IdealCache Mechanism = "ideal-cache"
	// IdealNoRefresh additionally disables refresh entirely (Figure 14's
	// ideal).
	IdealNoRefresh Mechanism = "ideal-norefresh"
	// TLDRAM is the Tiered-Latency DRAM baseline [58].
	TLDRAM Mechanism = "tl-dram"
	// SALP is the SALP-MASA baseline [53].
	SALP Mechanism = "salp"
	// RAIDR is a retention-aware refresh baseline [64] (footnote 4): the
	// bulk of rows refresh at a doubled window while weak rows are
	// refreshed individually, with no copy rows.
	RAIDR Mechanism = "raidr"
	// ChargeCache is the related-work latency baseline [26]: rows
	// precharged within the last ~1 ms re-activate at reduced latency,
	// with the benefit expiring as cells leak.
	ChargeCache Mechanism = "chargecache"
)

// isCROW reports whether the mechanism is built on CROW's copy rows: only
// these get copy rows, a CROW-table and its overheads.
func (m Mechanism) isCROW() bool {
	return m == Cache || m == Ref || m == CacheRef || m == Hammer
}

// Options configures one simulation. The zero value of every field selects
// the paper's defaults (Table 2).
type Options struct {
	Mechanism Mechanism

	// Standard selects the memory standard: "lpddr4" (the paper's Table 2
	// device, the default), "ddr5" (DDR5-4800 with same-bank refresh), or
	// "hbm2" (an HBM2 stack with pseudo-channels). See crow.Standards().
	// CROW's mechanisms are standard-agnostic, so every mechanism runs on
	// every standard.
	Standard string
	// Scheduler selects the controller's request scheduler: "frfcfs-cap"
	// (Table 2's capped FR-FCFS, the default), "frfcfs" (uncapped), or
	// "fcfs". See crow.Schedulers().
	Scheduler string
	// RowPolicy selects the row-buffer management policy: "timeout"
	// (Table 2's 75 ns idle close, the default), "open", or "closed". See
	// crow.RowPolicies(). (SALP with SALPOpenPage defaults to "open".)
	RowPolicy string
	// Mapping selects the physical-address bit layout: "robarococh"
	// (row-streaming, the default) or "rocobarach" (bank-interleaved). See
	// crow.Mappings().
	Mapping string

	// Workloads names the application run on each core (1–4 entries);
	// see crow.Workloads() for the available names. Defaults to
	// {"mcf"}.
	Workloads []string
	// TraceFiles, when set, loads recorded traces (the tracegen format:
	// "<bubbles> <hex-addr> [W]" per line) instead of the synthetic
	// generators — one file per core. Overrides Workloads.
	TraceFiles []string

	// CopyRows per subarray (CROW-n). Default 8.
	CopyRows int
	// DensityGbit is the DRAM chip density: 8, 16, 32 or 64. Default 8.
	DensityGbit int
	// RefreshWindowMS is the baseline refresh window. Default 64 ms
	// (CROW-ref doubles it to 128 ms).
	RefreshWindowMS float64
	// WeakRowsPerSubarray is CROW-ref's assumed weak-row count
	// (Section 8.2 uses 3).
	WeakRowsPerSubarray int

	// LLCBytes is the shared LLC capacity. Default 8 MiB.
	LLCBytes int64
	// Prefetch enables the RPT-style stride prefetcher (Section 8.1.5).
	Prefetch bool

	// TLDRAMNearRows sets the TL-DRAM near-segment size. Default 8.
	TLDRAMNearRows int
	// SALPSubarrays sets SALP's subarrays per bank. Default 128.
	SALPSubarrays int
	// SALPOpenPage selects SALP's open-page row policy ("-O").
	SALPOpenPage bool
	// HammerThreshold is the activations-per-window detection threshold
	// for the RowHammer mitigation. Default 2048.
	HammerThreshold int
	// TableShareGroup shares one CROW-table entry set across this many
	// adjacent subarrays (Section 6.1's storage optimization; 1 =
	// dedicated sets).
	TableShareGroup int
	// FullRestore disables CROW-cache's early-terminated restoration as
	// an ablation (Section 4.1.3).
	FullRestore bool
	// EagerRestore uses the paper's literal Section 4.1.4 flow: a miss
	// that would evict a partially-restored pair first fully restores it
	// inline. The default skips the allocation instead (ablation).
	EagerRestore bool
	// ControllerCap is the FR-FCFS-Cap row-hit limit [81]. Default 16.
	ControllerCap int
	// RowTimeoutNs is the timeout row-buffer policy's idle threshold.
	// Default 75 ns (Table 2).
	RowTimeoutNs float64
	// PerBankRefresh uses LPDDR4's REFpb mode: one bank refreshes while
	// the others stay accessible.
	PerBankRefresh bool
	// RefreshPostpone allows deferring up to this many due refreshes
	// while demand is queued (JEDEC permits 8; elastic refresh [107]).
	RefreshPostpone int

	// Mitigation selects the RowHammer mitigation policy (the list in
	// internal/hammer): "none" (default), "para" (probabilistic neighbour
	// refresh), "refresh-scale" (multiplied refresh rate), or
	// "crow-hammer" (the paper's Section 4.3 victim remap; requires a
	// crow-* mechanism). See crow.Mitigations().
	Mitigation string
	// ParaPerMille is PARA's per-activation neighbour-refresh probability
	// in 1/1000ths. Default 5 (0.5%) when Mitigation is "para".
	ParaPerMille int
	// RefreshScale divides the refresh interval (4 = refresh 4x as
	// often). Default 4 when Mitigation is "refresh-scale".
	RefreshScale int

	// FlipHCFirst, when positive, attaches the RowHammer bit-flip model
	// (internal/hammer): the nominal aggressor activation count per side
	// at which the most vulnerable rows flip. Flips are reported in
	// Report.Flips. Zero disables the model.
	FlipHCFirst int
	// FlipJitterPct spreads per-row flip thresholds uniformly over
	// ±FlipJitterPct%. Default 25 when the flip model is on.
	FlipJitterPct int
	// FlipBlastPct is the ±2-neighbour dose as a percentage of the ±1
	// dose (HammerSim's blast radius). Default 25 when the flip model is
	// on; negative disables the ±2 radius.
	FlipBlastPct int
	// FlipPatternPct scales the flip threshold of the worst-data-pattern
	// half of the rows (a seeded proxy — the trace-driven simulator
	// carries no real data). Default 75 when the flip model is on.
	FlipPatternPct int

	// Translation selects the virtual-to-physical layout: "hash" (the
	// default scattered-frame model) or "rowstripe" (row adjacency
	// preserved, tenants striped row-by-row — the RowHammer lab's
	// layout; attacker workloads need it to aim at neighbouring rows).
	Translation string

	// Verify runs the cross-layer correctness oracle alongside the
	// simulation (shadow data memory, refresh-deadline monitor,
	// scheduler-legality and accounting checks; see internal/oracle). Any
	// violations are reported in Report.ViolationCounts. Roughly doubles
	// simulation time.
	Verify bool

	// MeasureInsts is the per-core instruction budget (default 500k;
	// the paper uses 200M — scale up for tighter numbers).
	MeasureInsts int64
	// WarmupInsts precede measurement (default MeasureInsts/10).
	WarmupInsts int64
	// MaxMeasureCycles, when positive, caps warmup and measurement at
	// that many CPU cycles each; runs that hit the cap report
	// Report.Truncated. It bounds configurations that cannot make forward
	// progress (e.g. a refresh-starved channel under -mitigation
	// refresh-scale at an extreme factor). 0 = the generous default cap.
	MaxMeasureCycles int64
	// Seed drives every stochastic component. Default 1.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Mechanism == "" {
		o.Mechanism = Baseline
	}
	if o.Standard == "" {
		o.Standard = "lpddr4"
	}
	if o.Scheduler == "" {
		o.Scheduler = ctrl.DefaultScheduler
	}
	if o.RowPolicy == "" {
		o.RowPolicy = ctrl.DefaultRowPolicy
		if o.Mechanism == SALP && o.SALPOpenPage {
			o.RowPolicy = "open"
		}
	}
	if o.Mapping == "" {
		o.Mapping = dram.DefaultMapping
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"mcf"}
	}
	if o.CopyRows == 0 {
		o.CopyRows = 8
	}
	if o.DensityGbit == 0 {
		o.DensityGbit = 8
	}
	if o.RefreshWindowMS == 0 {
		// The baseline retention window is a property of the standard:
		// 64 ms for LPDDR4, 32 ms for DDR5 and HBM2. Unknown standard
		// names keep the LPDDR4 default here and are rejected by Validate.
		o.RefreshWindowMS = 64
		if std, err := dram.StandardByName(o.Standard); err == nil {
			o.RefreshWindowMS = std.RefWindowMS
		}
	}
	if o.WeakRowsPerSubarray == 0 {
		o.WeakRowsPerSubarray = 3
	}
	if o.LLCBytes == 0 {
		o.LLCBytes = 8 << 20
	}
	if o.TLDRAMNearRows == 0 {
		o.TLDRAMNearRows = 8
	}
	if o.SALPSubarrays == 0 {
		o.SALPSubarrays = 128
	}
	if o.HammerThreshold == 0 {
		o.HammerThreshold = 2048
	}
	if o.TableShareGroup == 0 {
		o.TableShareGroup = 1
	}
	if o.ControllerCap == 0 {
		o.ControllerCap = 16
	}
	if o.RowTimeoutNs == 0 {
		o.RowTimeoutNs = 75
	}
	if o.Mitigation == "" {
		o.Mitigation = "none"
	}
	if o.Mitigation == "para" && o.ParaPerMille == 0 {
		o.ParaPerMille = 5
	}
	if o.Mitigation == "refresh-scale" && o.RefreshScale == 0 {
		o.RefreshScale = 4
	}
	if o.FlipHCFirst > 0 {
		if o.FlipJitterPct == 0 {
			o.FlipJitterPct = 25
		}
		if o.FlipBlastPct == 0 {
			o.FlipBlastPct = 25
		}
		if o.FlipPatternPct == 0 {
			o.FlipPatternPct = 75
		}
	}
	if o.Translation == "" {
		o.Translation = "hash"
	}
	if o.MeasureInsts == 0 {
		o.MeasureInsts = 500_000
	}
	if o.WarmupInsts == 0 {
		o.WarmupInsts = o.MeasureInsts / 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Key returns a canonical, collision-safe identity for the simulation these
// options request: two Options values produce the same key if and only if
// they configure the same run (after defaulting). It is the memoization key
// of the experiment engine.
//
// The key is the JSON encoding of the fully-defaulted struct, which covers
// every exported field — including fields added in the future — and
// delimits slice elements unambiguously, unlike the hand-formatted %v key
// it replaces (which omitted fields such as TraceFiles and could not tell
// {"a b"} from {"a","b"}).
func (o Options) Key() string {
	b, err := json.Marshal(o.withDefaults())
	if err != nil {
		// Options contains only marshalable field types; keep it so.
		panic("crow: options not encodable: " + err.Error())
	}
	return string(b)
}

// Report is the outcome of one simulation.
type Report struct {
	Mechanism Mechanism
	// IPC and MPKI are per-core.
	IPC  []float64
	MPKI []float64

	// EnergyNJ is the DRAM energy breakdown over the measured interval.
	EnergyNJ EnergyBreakdown

	// CROWTableHitRate is the mechanism's table hit rate (CROW-table, TL-DRAM
	// near segment, ChargeCache); 1 for the ideal, zero with no table. It and
	// every counter below cover the measured interval, as IPC does.
	CROWTableHitRate float64
	// Substrate statistics, one counter of the mechanism's core.Stats each.
	Hits, Misses, Copies, Evictions, RestoreOps int64
	RefRemaps, HammerRemaps                     int64

	// RowRefreshOps counts RAIDR's row-granular weak-row refreshes.
	RowRefreshOps int64

	// RowHammer lab results (zero unless the flip model / a mitigation
	// ran; see Options.FlipHCFirst and Options.Mitigation).
	Mitigation string
	// Flips counts bit-flip-threshold crossings on exposed rows;
	// ShieldedFlips counts crossings absorbed by a CROW-hammer remap
	// (the data had been moved to a copy row). The flip findings alone cover
	// the whole run: a row's dose accumulates across the warm-up boundary.
	Flips, ShieldedFlips int64
	// FlipVictimRows is the number of distinct rows that flipped, and
	// FlipRows lists them (sorted by channel, rank, bank, row).
	FlipVictimRows int
	FlipRows       []hammer.FlipRow
	// FlipsByCore attributes flips to the core owning each victim row
	// (rowstripe translation only).
	FlipsByCore []int64
	// MitigationRefreshes counts PARA's neighbour-refresh activations.
	MitigationRefreshes int64

	// Command counts.
	ACT, ACTt, ACTc, RD, WR, REF int64
	RowHitRate                   float64
	Refreshes                    int64
	AvgReadLatencyNs             float64
	// ReadLatencyP50Ns / ReadLatencyP99Ns bound the demand read latency
	// distribution (log-bucket upper bounds).
	ReadLatencyP50Ns float64
	ReadLatencyP99Ns float64

	// Truncated reports that the simulation hit its cycle limit before
	// every core retired the requested instruction count; IPC then covers
	// only what was actually retired.
	Truncated bool

	// ChipAreaOverhead is the DRAM die overhead of the configuration.
	ChipAreaOverhead float64
	// CapacityOverhead is the DRAM storage the substrate reserves.
	CapacityOverhead float64

	// Violations is the correctness oracle's total violation count (always
	// zero unless Options.Verify was set — and, absent bugs, with it).
	Violations int64
	// ViolationCounts breaks Violations down by invariant class;
	// ViolationSamples holds the first violations verbatim.
	ViolationCounts  map[string]int64
	ViolationSamples []string
}

// EnergyBreakdown is the DRAM energy split in nanojoules.
type EnergyBreakdown struct {
	ActPre, Read, Write, Refresh, Background float64
}

// Total returns the total DRAM energy in nanojoules.
func (e EnergyBreakdown) Total() float64 {
	return e.ActPre + e.Read + e.Write + e.Refresh + e.Background
}

// Workloads returns the names of the available synthetic applications.
func Workloads() []string { return trace.Names(trace.Apps) }

// Run executes one simulation.
func Run(o Options) (Report, error) {
	return RunContext(context.Background(), o)
}

// RunContext executes one simulation under a context: the simulation loop
// polls ctx and abandons the run with its error once canceled or past its
// deadline, so callers (the experiment engine, the CLIs) can enforce
// per-run timeouts and interrupt whole sweeps.
//
// Validate is the one gate: anything it rejects is returned as an error here,
// before any part of the system is built.
func RunContext(ctx context.Context, o Options) (Report, error) {
	if err := o.Validate(); err != nil {
		return Report{}, err
	}
	o = o.withDefaults()
	cfg, mech, err := build(o)
	if err != nil {
		return Report{}, err
	}
	gens, err := generators(o)
	if err != nil {
		return Report{}, err
	}
	// Observability rides the context, not Options: Options.Key() is the
	// engine's memoization key, and a traced run is the same simulation as
	// an untraced one.
	cfg.Obs = obs.From(ctx)
	sys := sim.New(cfg, mech, gens)
	defer sys.Release()
	res, err := sys.RunContext(ctx)
	if err != nil {
		return Report{}, fmt.Errorf("crow: %s on %v: %w", o.Mechanism, o.Workloads, err)
	}
	return report(o, cfg, res), nil
}

// Comparison is the outcome of Compare: a mechanism versus the baseline on
// identical workloads.
type Comparison struct {
	Base, Mech Report
	// Speedup is the weighted-speedup improvement (0.074 = +7.4 %),
	// computed with per-app alone-run IPCs on the baseline system as the
	// denominator [104].
	Speedup float64
	// EnergyRatio is mechanism energy / baseline energy (0.917 = −8.3 %).
	EnergyRatio float64
}

// Compare runs the baseline and the given configuration on the same
// workloads and reports weighted speedup and relative DRAM energy.
//
// It is the sequential composition of CompareRuns and CompareFrom; callers
// with an execution engine run CompareRuns' simulations concurrently and
// assemble the result themselves.
func Compare(o Options) (Comparison, error) {
	runs := CompareRuns(o)
	reps := make([]Report, len(runs))
	for i, ro := range runs {
		rep, err := Run(ro)
		if err != nil {
			return Comparison{}, err
		}
		reps[i] = rep
	}
	return CompareFrom(o, reps)
}

// CompareRuns declares the independent simulations Compare needs, in order:
// the baseline on the full workload mix, the mechanism itself, and — for
// multi-core mixes — one alone-run baseline per application (the
// weighted-speedup denominators [104]). Every run is independent of the
// others, so they parallelize freely.
func CompareRuns(o Options) []Options {
	o = o.withDefaults()
	baseOpts := o
	baseOpts.Mechanism = Baseline
	runs := []Options{baseOpts, o}
	if len(o.Workloads) > 1 {
		for i, w := range o.Workloads {
			aOpts := baseOpts
			aOpts.Workloads = []string{w}
			aOpts.Seed = o.Seed + int64(i)
			runs = append(runs, aOpts)
		}
	}
	return runs
}

// CompareFrom assembles a Comparison from completed reports for
// CompareRuns(o), given in the same order.
func CompareFrom(o Options, reps []Report) (Comparison, error) {
	o = o.withDefaults()
	want := 2
	if len(o.Workloads) > 1 {
		want += len(o.Workloads)
	}
	if len(reps) != want {
		return Comparison{}, fmt.Errorf("crow: CompareFrom wants %d reports (see CompareRuns), got %d", want, len(reps))
	}
	base, mech := reps[0], reps[1]
	alone := make([]float64, len(o.Workloads))
	if len(o.Workloads) == 1 {
		alone[0] = base.IPC[0]
	} else {
		for i := range o.Workloads {
			alone[i] = reps[2+i].IPC[0]
		}
	}
	wsBase := metrics.WeightedSpeedup(base.IPC, alone)
	wsMech := metrics.WeightedSpeedup(mech.IPC, alone)
	// A measured interval too short to issue a DRAM command consumes no DRAM
	// energy: two such runs compare equal, a spending mechanism against a
	// baseline that spent nothing does not compare.
	energyRatio := 1.0
	if be, me := base.EnergyNJ.Total(), mech.EnergyNJ.Total(); be != 0 {
		energyRatio = me / be
	} else if me != 0 {
		return Comparison{}, fmt.Errorf("crow: no energy ratio: the baseline consumed no DRAM energy, %s %g nJ", mech.Mechanism, me)
	}
	return Comparison{
		Base:        base,
		Mech:        mech,
		Speedup:     metrics.Speedup(wsMech, wsBase),
		EnergyRatio: energyRatio,
	}, nil
}

func build(o Options) (sim.Config, core.Mechanism, error) {
	density := dram.Density(o.DensityGbit)
	std, err := dram.StandardByName(o.Standard)
	if err != nil {
		return sim.Config{}, nil, fmt.Errorf("crow: %w", err)
	}
	copyRows := 0
	if o.Mechanism.isCROW() {
		copyRows = o.CopyRows
	}
	cfg := sim.DefaultFor(std, copyRows, density, o.RefreshWindowMS)
	cfg.LLC.SizeBytes = o.LLCBytes
	cfg.Ctrl.Cap = o.ControllerCap
	cfg.Ctrl.TimeoutNs = o.RowTimeoutNs
	if o.PerBankRefresh {
		// Overrides the standard's default granularity (LPDDR4's REFpb
		// mode; on DDR5 it replaces same-bank refresh).
		cfg.Ctrl.Refresh = "perbank"
	}
	cfg.Ctrl.Scheduler = o.Scheduler
	// withDefaults has already turned SALPOpenPage into the "open" policy.
	cfg.Ctrl.RowPolicy = o.RowPolicy
	cfg.Mapping = o.Mapping
	cfg.Translation = o.Translation
	if o.FlipHCFirst > 0 {
		cfg.FlipModel = &hammer.Config{
			Seed:       o.Seed,
			HCFirst:    o.FlipHCFirst,
			JitterPct:  o.FlipJitterPct,
			BlastPct:   o.FlipBlastPct,
			PatternPct: o.FlipPatternPct,
		}
	}
	cfg.Ctrl.MaxPostpone = o.RefreshPostpone
	cfg.Prefetch = o.Prefetch
	cfg.Verify = o.Verify
	cfg.WarmupInsts = o.WarmupInsts
	cfg.MeasureInsts = o.MeasureInsts
	cfg.MaxMeasureCycles = o.MaxMeasureCycles
	cfg.Seed = o.Seed

	// weakRows is the retention profile RAIDR and CROW-ref both consult.
	weakRows := func() *retention.Profile {
		return retention.FixedProfile(retention.Geometry{
			Channels: cfg.Channels, Ranks: cfg.Geo.Ranks, Banks: cfg.Geo.Banks,
			Subarrays: cfg.Geo.SubarraysPerBank(), RowsPerSubarray: cfg.Geo.RowsPerSubarray,
		}, o.WeakRowsPerSubarray, o.Seed)
	}
	var mech core.Mechanism
	switch o.Mechanism {
	case Baseline:
		mech = &core.Baseline{T: cfg.T}
	case IdealCache:
		mech = &core.Ideal{T: cfg.T}
	case IdealNoRefresh:
		mech = &core.Ideal{T: cfg.T, NoRefresh: true}
	case ChargeCache:
		mech = chargecache.New(cfg.Channels, cfg.T, 128)
	case RAIDR:
		mech = core.NewRAIDR(cfg.Channels, cfg.Geo, cfg.T, weakRows())
	case TLDRAM:
		mech = tldram.New(cfg.Channels, cfg.Geo, cfg.T, o.TLDRAMNearRows)
	case SALP:
		cfg.Geo = salp.Config{SubarraysPerBank: o.SALPSubarrays}.Geometry()
		cfg.T = dram.LPDDR4(density, o.RefreshWindowMS, cfg.Geo)
		cfg.Ctrl.MASA = true
		mech = &core.Baseline{T: cfg.T}
	default:
		if !o.Mechanism.isCROW() {
			return sim.Config{}, nil, fmt.Errorf("crow: unknown mechanism %q", o.Mechanism)
		}
		m := core.NewCROWShared(cfg.Channels, cfg.Geo, cfg.T, o.TableShareGroup)
		m.FullRestore = o.FullRestore
		m.EagerRestore = o.EagerRestore
		if o.Mechanism == Cache || o.Mechanism == CacheRef {
			m.Cache = true
		}
		if o.Mechanism == Ref || o.Mechanism == CacheRef {
			m.Ref = true
			m.LoadProfile(weakRows())
		}
		if o.Mechanism == Hammer {
			m.HammerThreshold = o.HammerThreshold
		}
		mech = m
	}
	if o.Mitigation != "" && o.Mitigation != "none" {
		wrapped, err := hammer.NewMitigation(o.Mitigation, hammer.MitConfig{
			Channels:        cfg.Channels,
			Geo:             cfg.Geo,
			Seed:            o.Seed,
			ParaPerMille:    o.ParaPerMille,
			RefreshScale:    o.RefreshScale,
			HammerThreshold: o.HammerThreshold,
		}, mech)
		if err != nil {
			return sim.Config{}, nil, fmt.Errorf("crow: %w", err)
		}
		mech = wrapped
	}
	return cfg, mech, nil
}

func generators(o Options) ([]trace.Generator, error) {
	if len(o.TraceFiles) > 0 {
		gens := make([]trace.Generator, len(o.TraceFiles))
		for i, path := range o.TraceFiles {
			f, err := os.Open(path)
			if err != nil {
				return nil, fmt.Errorf("crow: %v", err)
			}
			recs, err := trace.Parse(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			gens[i] = &trace.Replay{Records: recs}
		}
		return gens, nil
	}
	gens := make([]trace.Generator, len(o.Workloads))
	for i, name := range o.Workloads {
		app, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		gens[i] = app.Gen(o.Seed + int64(i)*7919)
	}
	return gens, nil
}

func report(o Options, cfg sim.Config, res sim.Result) Report {
	r := Report{
		Mechanism: o.Mechanism,
		IPC:       res.IPC,
		MPKI:      res.MPKI,
		EnergyNJ: EnergyBreakdown{
			ActPre: res.Energy.ActPre, Read: res.Energy.Read, Write: res.Energy.Write,
			Refresh: res.Energy.Refresh, Background: res.Energy.Background,
		},
		ACT: res.DRAM.ACT, ACTt: res.DRAM.ACTTwo, ACTc: res.DRAM.ACTCopy,
		RD: res.DRAM.RD, WR: res.DRAM.WR, REF: res.DRAM.REF,
		Refreshes:        res.Ctrl.Refreshes,
		AvgReadLatencyNs: res.AvgReadNs,
		ReadLatencyP50Ns: res.ReadP50Ns,
		ReadLatencyP99Ns: res.ReadP99Ns,
		Truncated:        res.Truncated,
	}
	if o.Verify {
		r.Violations = res.Verify.Total()
		if len(res.Verify.Counts) > 0 {
			r.ViolationCounts = res.Verify.Counts
		}
		r.ViolationSamples = res.Verify.Samples
	}
	if hm := res.Ctrl.RowHits + res.Ctrl.RowMisses; hm > 0 {
		r.RowHitRate = float64(res.Ctrl.RowHits) / float64(hm)
	}
	if o.Mitigation != "" && o.Mitigation != "none" {
		r.Mitigation = o.Mitigation
	}
	r.Flips = res.Flips.Flips
	r.ShieldedFlips = res.Flips.Shielded
	r.FlipVictimRows = len(res.Flips.Rows)
	r.FlipRows = res.Flips.Rows
	r.FlipsByCore = res.FlipsByCore
	m := res.Mech
	r.CROWTableHitRate = m.HitRate()
	r.Hits, r.Misses = m[core.TableHit], m[core.TableMiss]
	r.Copies, r.Evictions = m[core.TableCopy], m[core.TableEviction]
	r.RestoreOps = m[core.TableRestore]
	r.RefRemaps, r.HammerRemaps = m[core.TableRefRemap], m[core.TableHamRemap]
	r.RowRefreshOps = m[core.TableRowRefresh]
	r.MitigationRefreshes = m[core.TableNeighborRefresh]
	// What the counters cannot say is static configuration.
	if o.Mechanism.isCROW() {
		r.ChipAreaOverhead = circuit.ChipOverhead(o.CopyRows)
		r.CapacityOverhead = float64(o.CopyRows) / float64(cfg.Geo.RowsPerSubarray)
	}
	switch o.Mechanism {
	case TLDRAM:
		r.ChipAreaOverhead = circuit.TLDRAMChipOverhead(o.TLDRAMNearRows)
		r.CapacityOverhead = float64(o.TLDRAMNearRows) / float64(cfg.Geo.RowsPerSubarray)
	case IdealCache, IdealNoRefresh:
		r.CROWTableHitRate = 1
	case SALP:
		r.ChipAreaOverhead = salp.Config{SubarraysPerBank: o.SALPSubarrays}.ChipAreaOverhead()
	}
	return r
}
