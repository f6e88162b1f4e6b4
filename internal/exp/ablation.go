package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// TableSharing evaluates the Section 6.1 storage optimization: sharing one
// CROW-table entry set across 1/2/4/8 subarrays. The paper reports the
// average single-core speedup dropping from 7.1 % to 6.1 % when sharing
// across 4 subarrays (a ~4x storage reduction).
func TableSharing(r *Runner) (Study, error) {
	s := Study{
		title: "Ablation: CROW-table sharing across subarrays (Section 6.1)",
		key:   "share group",
		notes: []string{"paper: sharing across 4 subarrays reduces the speedup from 7.1% to 6.1%"},
		cols:  []col{speedup("avg speedup"), {head: "table KB/channel", show: dec2}},
	}
	for _, share := range []int{1, 2, 4, 8} {
		s.arms = append(s.arms, arm{
			name:  fmt.Sprint(share),
			o:     crow.Options{Mechanism: crow.Cache, TableShareGroup: share},
			fixed: map[string]float64{"table KB/channel": float64(core.SharedStorageBits(dram.Std(8), 1, share)) / 8 / 1000},
		})
	}
	return r.study(s, crow.Options{Mechanism: crow.Baseline})
}

// RestorePolicy evaluates the restoration/eviction policy space: the value
// of early-terminated restoration (Section 4.1.3) and of deferring victim
// restoration off the critical path (Section 4.1.4).
func RestorePolicy(r *Runner) (Study, error) {
	s := Study{
		title: "Ablation: restoration and eviction policies (Sections 4.1.3-4.1.4)",
		key:   "policy",
		notes: []string{"at paper scale (200M insts) eager restores are rare (0.6% of ACTs) and the first two coincide"},
		arms: []arm{
			// The default: early-terminated restoration, allocation skipped
			// when the victim pair is partial.
			{name: "early termination + lazy eviction (default)", o: crow.Options{Mechanism: crow.Cache}},
			// The paper's literal Section 4.1.4 flow: restore the partial
			// victim inline before evicting it.
			{name: "early termination + eager restore (paper)",
				o: crow.Options{Mechanism: crow.Cache, EagerRestore: true}},
			// Section 4.1.3 off: no partial pairs ever exist.
			{name: "full restoration (no early termination)",
				o: crow.Options{Mechanism: crow.Cache, FullRestore: true}},
		},
		cols: []col{speedup("avg speedup"), tally("inline restore ops", func(rep crow.Report) int64 { return rep.RestoreOps })},
	}
	// One baseline run per app serves all three policies, so this is not
	// r.study's loop, which asks for the baseline beside every arm.
	for _, app := range r.singleApps() {
		w := []string{app.Name}
		base, err := r.Run(crow.Options{Mechanism: crow.Baseline, Workloads: w})
		if err != nil {
			return Study{}, err
		}
		for i, a := range s.arms {
			a.o.Workloads = w
			rep, err := r.Run(a.o)
			if err != nil {
				return Study{}, err
			}
			s.observe(i, base, rep)
		}
	}
	return s, nil
}

// RefComparison pits CROW-ref against a RAIDR-style retention-aware refresh
// baseline (footnote 4) on the single-core suite with futuristic 64 Gbit
// chips. Both halve the bulk refresh rate; RAIDR pays per-weak-row refresh
// work but no DRAM capacity, CROW-ref pays copy rows but composes with
// CROW-cache.
func RefComparison(r *Runner) (Study, error) {
	const storage, capacity = "ctrl storage KB", "capacity ovh"
	geo := dram.Std(8)
	weakRows := 3 * geo.Banks * geo.SubarraysPerBank() * 4 // per system
	return r.study(Study{
		title: "Extension: CROW-ref vs RAIDR-style binning (64 Gbit, single-core)",
		key:   "mechanism",
		arms: []arm{
			{name: "crow-ref", o: crow.Options{Mechanism: crow.Ref, DensityGbit: 64},
				fixed: map[string]float64{storage: core.StorageKB(geo, 1), capacity: 3.0 / float64(geo.RowsPerSubarray)}},
			{name: "raidr", o: crow.Options{Mechanism: crow.RAIDR, DensityGbit: 64},
				fixed: map[string]float64{storage: core.RAIDRStorageKB(weakRows), capacity: 0}},
		},
		cols: []col{
			speedup("speedup"), energy("energy ratio"),
			{head: storage, show: dec2}, {head: capacity, show: pct2},
			tally("row refreshes", func(rep crow.Report) int64 { return rep.RowRefreshOps }),
		},
	}, crow.Options{Mechanism: crow.Baseline, DensityGbit: 64})
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
			{"attacker IPC (baseline)", dec3(h.IPCBase)},
			{"attacker IPC (mitigated)", dec3(h.IPCMitigate)},
		},
		Notes: []string{"the mitigation moves the data adjacent to hammered rows out of harm's way"},
	}
}

// SchedulerSensitivity sweeps the FR-FCFS-Cap limit and the row-buffer
// timeout around the Table 2 defaults (cap 16, 75 ns) on the single-core
// suite, reporting speedup relative to the defaults.
func SchedulerSensitivity(r *Runner) (Study, error) {
	return r.study(Study{
		title: "Sensitivity: FR-FCFS-Cap and row-buffer timeout (vs Table 2 defaults)",
		key:   "config",
		arms: []arm{
			{name: "cap=4", o: crow.Options{Mechanism: crow.Baseline, ControllerCap: 4}},
			{name: "cap=8", o: crow.Options{Mechanism: crow.Baseline, ControllerCap: 8}},
			{name: "cap=64", o: crow.Options{Mechanism: crow.Baseline, ControllerCap: 64}},
			{name: "timeout=37ns", o: crow.Options{Mechanism: crow.Baseline, RowTimeoutNs: 37.5}},
			{name: "timeout=300ns", o: crow.Options{Mechanism: crow.Baseline, RowTimeoutNs: 300}},
		},
		cols: []col{speedup("speedup vs default")},
	}, crow.Options{Mechanism: crow.Baseline})
}
