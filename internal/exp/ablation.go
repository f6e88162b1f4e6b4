package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/metrics"
)

// SharingPoint is one CROW-table sharing design point (Section 6.1).
type SharingPoint struct {
	ShareGroup int
	Speedup    float64 // avg single-core CROW-cache speedup
	StorageKB  float64 // per-channel CROW-table storage
}

// SharingResult holds the CROW-table sharing ablation.
type SharingResult struct{ Points []SharingPoint }

var sharingGroups = []int{1, 2, 4, 8}

// TableSharing evaluates the Section 6.1 storage optimization: sharing one
// CROW-table entry set across 1/2/4/8 subarrays. The paper reports the
// average single-core speedup dropping from 7.1 % to 6.1 % when sharing
// across 4 subarrays (a ~4x storage reduction).
func TableSharing(r *Runner) (SharingResult, error) {
	var res SharingResult
	for _, share := range sharingGroups {
		var sp []float64
		err := r.eachApp(crow.Options{Mechanism: crow.Baseline},
			crow.Options{Mechanism: crow.Cache, TableShareGroup: share}, func(base, rep crow.Report) {
				sp = append(sp, metrics.Speedup(rep.IPC[0], base.IPC[0]))
			})
		if err != nil {
			return SharingResult{}, err
		}
		res.Points = append(res.Points, SharingPoint{
			ShareGroup: share,
			Speedup:    metrics.Mean(sp),
			StorageKB:  float64(core.SharedStorageBits(dram.Std(8), 1, share)) / 8 / 1000,
		})
	}
	return res, nil
}

// Point returns the design point with the given sharing factor.
func (s SharingResult) Point(share int) SharingPoint {
	for _, p := range s.Points {
		if p.ShareGroup == share {
			return p
		}
	}
	return SharingPoint{}
}

// Table renders the sharing ablation.
func (s SharingResult) Table() Table {
	t := Table{
		Title:  "Ablation: CROW-table sharing across subarrays (Section 6.1)",
		Header: []string{"share group", "avg speedup", "table KB/channel"},
		Notes:  []string{"paper: sharing across 4 subarrays reduces the speedup from 7.1% to 6.1%"},
	}
	for _, p := range s.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.ShareGroup), pct(p.Speedup), fmt.Sprintf("%.2f", p.StorageKB),
		})
	}
	return t
}

// RestoreResult holds the restoration-policy ablation.
type RestoreResult struct {
	// Lazy is the default: early-terminated restoration with allocation
	// skipped when the victim pair is partial.
	Lazy float64
	// Eager is the paper's literal Section 4.1.4 flow: restore the
	// partial victim inline before evicting it.
	Eager float64
	// FullRestore disables early termination entirely (Section 4.1.3
	// off): no partial pairs ever exist.
	FullRestore float64
	// RestoreOpsEager counts the inline restore passes under Eager.
	RestoreOpsEager int64
}

// RestorePolicy evaluates the restoration/eviction policy space: the value
// of early-terminated restoration (Section 4.1.3) and of deferring victim
// restoration off the critical path (Section 4.1.4).
func RestorePolicy(r *Runner) (RestoreResult, error) {
	var res RestoreResult
	var lazy, eager, full []float64
	for _, app := range r.singleApps() {
		w := []string{app.Name}
		base, err := r.Run(crow.Options{Mechanism: crow.Baseline, Workloads: w})
		if err != nil {
			return RestoreResult{}, err
		}
		l, err := r.Run(crow.Options{Mechanism: crow.Cache, Workloads: w})
		if err != nil {
			return RestoreResult{}, err
		}
		e, err := r.Run(crow.Options{Mechanism: crow.Cache, EagerRestore: true, Workloads: w})
		if err != nil {
			return RestoreResult{}, err
		}
		f, err := r.Run(crow.Options{Mechanism: crow.Cache, FullRestore: true, Workloads: w})
		if err != nil {
			return RestoreResult{}, err
		}
		lazy = append(lazy, metrics.Speedup(l.IPC[0], base.IPC[0]))
		eager = append(eager, metrics.Speedup(e.IPC[0], base.IPC[0]))
		full = append(full, metrics.Speedup(f.IPC[0], base.IPC[0]))
		res.RestoreOpsEager += e.RestoreOps
	}
	res.Lazy = metrics.Mean(lazy)
	res.Eager = metrics.Mean(eager)
	res.FullRestore = metrics.Mean(full)
	return res, nil
}

// Table renders the restore-policy ablation.
func (r RestoreResult) Table() Table {
	return Table{
		Title:  "Ablation: restoration and eviction policies (Sections 4.1.3-4.1.4)",
		Header: []string{"policy", "avg speedup", "inline restore ops"},
		Rows: [][]string{
			{"early termination + lazy eviction (default)", pct(r.Lazy), "0"},
			{"early termination + eager restore (paper)", pct(r.Eager), fmt.Sprint(r.RestoreOpsEager)},
			{"full restoration (no early termination)", pct(r.FullRestore), "0"},
		},
		Notes: []string{"at paper scale (200M insts) eager restores are rare (0.6% of ACTs) and the first two coincide"},
	}
}

// RefCompareRow is one refresh-mechanism design point.
type RefCompareRow struct {
	Name          string
	Speedup       float64
	EnergyRatio   float64
	StorageKB     float64 // controller-side storage
	CapacityOvh   float64 // DRAM capacity cost
	RowRefreshOps int64   // RAIDR's row-granular refreshes
}

// RefCompareResult compares refresh-overhead mechanisms at 64 Gbit.
type RefCompareResult struct{ Rows []RefCompareRow }

func refCompareConfigs() []struct {
	name    string
	o       crow.Options
	storage float64
	cap     float64
} {
	geo := dram.Std(8)
	weakRows := 3 * geo.Banks * geo.SubarraysPerBank() * 4 // per system
	return []struct {
		name    string
		o       crow.Options
		storage float64
		cap     float64
	}{
		{"crow-ref", crow.Options{Mechanism: crow.Ref, DensityGbit: 64},
			core.StorageKB(geo, 1), 3.0 / float64(geo.RowsPerSubarray)},
		{"raidr", crow.Options{Mechanism: crow.RAIDR, DensityGbit: 64},
			core.RAIDRStorageKB(weakRows), 0},
	}
}

// RefComparison pits CROW-ref against a RAIDR-style retention-aware refresh
// baseline (footnote 4) on the single-core suite with futuristic 64 Gbit
// chips. Both halve the bulk refresh rate; RAIDR pays per-weak-row refresh
// work but no DRAM capacity, CROW-ref pays copy rows but composes with
// CROW-cache.
func RefComparison(r *Runner) (RefCompareResult, error) {
	var res RefCompareResult
	for _, cfg := range refCompareConfigs() {
		var sp, en []float64
		var rowRef int64
		err := r.eachApp(crow.Options{Mechanism: crow.Baseline, DensityGbit: 64}, cfg.o, func(base, rep crow.Report) {
			sp = append(sp, metrics.Speedup(rep.IPC[0], base.IPC[0]))
			en = append(en, rep.EnergyNJ.Total()/base.EnergyNJ.Total())
			rowRef += rep.RowRefreshOps
		})
		if err != nil {
			return RefCompareResult{}, err
		}
		res.Rows = append(res.Rows, RefCompareRow{
			Name: cfg.name, Speedup: metrics.Mean(sp), EnergyRatio: metrics.Mean(en),
			StorageKB: cfg.storage, CapacityOvh: cfg.cap, RowRefreshOps: rowRef,
		})
	}
	return res, nil
}

// Row returns the named design point.
func (r RefCompareResult) Row(name string) RefCompareRow {
	for _, row := range r.Rows {
		if row.Name == name {
			return row
		}
	}
	return RefCompareRow{}
}

// Table renders the refresh-mechanism comparison.
func (r RefCompareResult) Table() Table {
	t := Table{
		Title:  "Extension: CROW-ref vs RAIDR-style binning (64 Gbit, single-core)",
		Header: []string{"mechanism", "speedup", "energy ratio", "ctrl storage KB", "capacity ovh", "row refreshes"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Name, pct(row.Speedup), fmt.Sprintf("%.3f", row.EnergyRatio),
			fmt.Sprintf("%.2f", row.StorageKB), pct2(row.CapacityOvh),
			fmt.Sprint(row.RowRefreshOps),
		})
	}
	return t
}

// HammerResult holds the RowHammer mitigation experiment (Section 4.3; the
// paper leaves quantitative evaluation to future work — this reproduces the
// mechanism end to end on a synthetic attack).
type HammerResult struct {
	Remaps      int64
	CopyOps     int64
	IPCBase     float64
	IPCMitigate float64
}

func hammerOpts() (base, mit crow.Options) {
	common := crow.Options{Workloads: []string{"hammer"}, LLCBytes: 64 << 10, HammerThreshold: 128}
	base = common
	base.Mechanism = crow.Baseline
	mit = common
	mit.Mechanism = crow.Hammer
	return base, mit
}

// HammerAttack runs the synthetic hammering probe with and without the
// mitigation (with a small LLC emulating cache-flush attacks).
func HammerAttack(r *Runner) (HammerResult, error) {
	baseOpts, mitOpts := hammerOpts()
	base, err := r.Run(baseOpts)
	if err != nil {
		return HammerResult{}, err
	}
	mit, err := r.Run(mitOpts)
	if err != nil {
		return HammerResult{}, err
	}
	return HammerResult{
		Remaps:      mit.HammerRemaps,
		CopyOps:     mit.ACTc,
		IPCBase:     base.IPC[0],
		IPCMitigate: mit.IPC[0],
	}, nil
}

// Table renders the RowHammer experiment.
func (h HammerResult) Table() Table {
	return Table{
		Title:  "Extension: RowHammer mitigation (Section 4.3)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"victim rows remapped", fmt.Sprint(h.Remaps)},
			{"protective ACT-c copies", fmt.Sprint(h.CopyOps)},
			{"attacker IPC (baseline)", fmt.Sprintf("%.3f", h.IPCBase)},
			{"attacker IPC (mitigated)", fmt.Sprintf("%.3f", h.IPCMitigate)},
		},
		Notes: []string{"the mitigation moves the data adjacent to hammered rows out of harm's way"},
	}
}

// SchedRow is one controller-policy design point.
type SchedRow struct {
	Name    string
	Speedup float64 // vs the default configuration
}

// SchedResult holds the controller-policy sensitivity study.
type SchedResult struct{ Rows []SchedRow }

func schedConfigs() []struct {
	name string
	mod  func(*crow.Options)
} {
	return []struct {
		name string
		mod  func(*crow.Options)
	}{
		{"cap=4", func(o *crow.Options) { o.ControllerCap = 4 }},
		{"cap=8", func(o *crow.Options) { o.ControllerCap = 8 }},
		{"cap=64", func(o *crow.Options) { o.ControllerCap = 64 }},
		{"timeout=37ns", func(o *crow.Options) { o.RowTimeoutNs = 37.5 }},
		{"timeout=300ns", func(o *crow.Options) { o.RowTimeoutNs = 300 }},
	}
}

// SchedulerSensitivity sweeps the FR-FCFS-Cap limit and the row-buffer
// timeout around the Table 2 defaults (cap 16, 75 ns) on the single-core
// suite, reporting speedup relative to the defaults.
func SchedulerSensitivity(r *Runner) (SchedResult, error) {
	var res SchedResult
	for _, cfg := range schedConfigs() {
		var sp []float64
		base := crow.Options{Mechanism: crow.Baseline}
		arm := base
		cfg.mod(&arm)
		err := r.eachApp(base, arm, func(base, rep crow.Report) {
			sp = append(sp, metrics.Speedup(rep.IPC[0], base.IPC[0]))
		})
		if err != nil {
			return SchedResult{}, err
		}
		res.Rows = append(res.Rows, SchedRow{Name: cfg.name, Speedup: metrics.Mean(sp)})
	}
	return res, nil
}

// Table renders the controller sensitivity study.
func (s SchedResult) Table() Table {
	t := Table{
		Title:  "Sensitivity: FR-FCFS-Cap and row-buffer timeout (vs Table 2 defaults)",
		Header: []string{"config", "speedup vs default"},
	}
	for _, row := range s.Rows {
		t.Rows = append(t.Rows, []string{row.Name, pct(row.Speedup)})
	}
	return t
}
