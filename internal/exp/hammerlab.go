package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/metrics"
)

// This file holds the RowHammer attack/defense lab experiments: a
// flips-vs-overhead frontier across the pluggable mitigations, and a
// two-tenant scenario measuring cross-tenant flips and victim slowdown.
// Both run the bit-flip model (Options.FlipHCFirst) under the rowstripe
// translation so the attacker's virtual row adjacency survives to DRAM.

// hammerLabEnv is the shared environment of every frontier arm: a
// double-sided attacker, a small LLC (emulating cache-flush attacks), the
// rowstripe translation, and a flip threshold low enough that the attack
// lands within the measured interval.
func hammerLabEnv() crow.Options {
	return crow.Options{
		Workloads:   []string{"hammer-double"},
		LLCBytes:    64 << 10,
		Translation: "rowstripe",
		FlipHCFirst: 512,
		// Bound runs that make no forward progress: refresh-rate scaling
		// past the bandwidth cliff (REFI < tRFC) starves the channel, and
		// without a cap such an arm would spin out the full generous
		// cycle allowance.
		MaxMeasureCycles: 10_000_000,
	}
}

// hammerLabArms returns the frontier's design points: unmitigated, PARA at
// a low and a protective probability, the CROW-hammer remap, and refresh
// rate scaling, all under the same attacker and flip model.
func hammerLabArms() []struct {
	name string
	o    crow.Options
} {
	mk := func(mut func(*crow.Options)) crow.Options {
		o := hammerLabEnv()
		o.Mechanism = crow.Baseline
		mut(&o)
		return o
	}
	return []struct {
		name string
		o    crow.Options
	}{
		{"unmitigated", mk(func(o *crow.Options) {})},
		{"para 1/1000", mk(func(o *crow.Options) {
			o.Mitigation = "para"
			o.ParaPerMille = 1
		})},
		{"para 100/1000", mk(func(o *crow.Options) {
			o.Mitigation = "para"
			o.ParaPerMille = 100
		})},
		{"crow-hammer", mk(func(o *crow.Options) {
			o.Mechanism = crow.Hammer
			o.Mitigation = "crow-hammer"
			o.HammerThreshold = 128
		})},
		{"refresh x32", mk(func(o *crow.Options) {
			o.Mitigation = "refresh-scale"
			o.RefreshScale = 32
		})},
	}
}

// HammerLabRow is one mitigation's point on the flips-vs-overhead frontier.
type HammerLabRow struct {
	Name       string
	Flips      int64 // exposed bit-flip-threshold crossings
	Shielded   int64 // crossings absorbed by a CROW-hammer remap
	VictimRows int   // distinct flipped rows
	Remaps     int64 // CROW-hammer victim remaps
	ParaRef    int64 // PARA neighbour-refresh activations
	REF        int64 // refresh commands issued
	IPC        float64
	Slowdown   float64 // vs the unmitigated arm
	EnergyX    float64 // energy vs the unmitigated arm
}

// HammerLabResult holds the flips-vs-overhead frontier.
type HammerLabResult struct {
	Rows []HammerLabRow
}

// HammerLab runs every mitigation arm against the same double-sided
// attacker and reports protection (flips) against cost (slowdown, energy,
// extra refresh work) relative to the unmitigated run.
func HammerLab(r *Runner) (HammerLabResult, error) {
	arms := hammerLabArms()
	base, err := r.Run(arms[0].o)
	if err != nil {
		return HammerLabResult{}, err
	}
	var res HammerLabResult
	for _, arm := range arms {
		rep, err := r.Run(arm.o)
		if err != nil {
			return HammerLabResult{}, err
		}
		res.Rows = append(res.Rows, HammerLabRow{
			Name:       arm.name,
			Flips:      rep.Flips,
			Shielded:   rep.ShieldedFlips,
			VictimRows: rep.FlipVictimRows,
			Remaps:     rep.HammerRemaps,
			ParaRef:    rep.MitigationRefreshes,
			REF:        rep.REF,
			IPC:        rep.IPC[0],
			Slowdown:   metrics.Speedup(base.IPC[0], rep.IPC[0]),
			EnergyX:    rep.EnergyNJ.Total() / base.EnergyNJ.Total(),
		})
	}
	return res, nil
}

// Row returns the named frontier arm.
func (h HammerLabResult) Row(name string) HammerLabRow {
	for _, row := range h.Rows {
		if row.Name == name {
			return row
		}
	}
	return HammerLabRow{}
}

// Table renders the flips-vs-overhead frontier.
func (h HammerLabResult) Table() Table {
	t := Table{
		Title: "RowHammer lab: flips vs mitigation overhead (double-sided attacker)",
		Header: []string{"mitigation", "flips", "shielded", "victim rows",
			"remaps", "para refreshes", "REF", "IPC", "slowdown", "energy x"},
		Notes: []string{
			"same attacker and flip model in every row; only the mitigation changes;",
			"slowdown and energy are relative to the unmitigated run",
		},
	}
	for _, row := range h.Rows {
		slow := pct(row.Slowdown)
		if row.IPC == 0 {
			// A starved arm (refresh scaling past the bandwidth cliff)
			// makes no forward progress; its slowdown ratio is undefined,
			// not zero.
			slow = "stalled"
		}
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprint(row.Flips),
			fmt.Sprint(row.Shielded),
			fmt.Sprint(row.VictimRows),
			fmt.Sprint(row.Remaps),
			fmt.Sprint(row.ParaRef),
			fmt.Sprint(row.REF),
			fmt.Sprintf("%.3f", row.IPC),
			slow,
			fmt.Sprintf("%.3f", row.EnergyX),
		})
	}
	return t
}

// tenantEnv is the two-tenant scenario's shared environment: an attacker
// and a traced victim on one shared channel set, with the rowstripe
// translation interleaving their rows so the attacker's blast radius lands
// in the victim's address space.
func tenantEnv() crow.Options {
	o := hammerLabEnv()
	o.Workloads = []string{"hammer-double", "mcf"}
	return o
}

// tenantArms returns the scenario's mitigation arms (a subset of the
// frontier: unmitigated, one probabilistic and one deterministic defense).
func tenantArms() []struct {
	name string
	o    crow.Options
} {
	mk := func(mut func(*crow.Options)) crow.Options {
		o := tenantEnv()
		o.Mechanism = crow.Baseline
		mut(&o)
		return o
	}
	return []struct {
		name string
		o    crow.Options
	}{
		{"unmitigated", mk(func(o *crow.Options) {})},
		{"para 100/1000", mk(func(o *crow.Options) {
			o.Mitigation = "para"
			o.ParaPerMille = 100
		})},
		{"crow-hammer", mk(func(o *crow.Options) {
			o.Mechanism = crow.Hammer
			o.Mitigation = "crow-hammer"
			o.HammerThreshold = 128
		})},
	}
}

// tenantVictimAlone is the victim's no-attacker baseline: the same
// environment with only the victim running.
func tenantVictimAlone() crow.Options {
	o := tenantEnv()
	o.Mechanism = crow.Baseline
	o.Workloads = []string{"mcf"}
	return o
}

// TenantRow is one mitigation's outcome in the two-tenant scenario.
type TenantRow struct {
	Name          string
	AttackerFlips int64 // flips landing in the attacker's own rows
	VictimFlips   int64 // cross-tenant flips in the victim's rows
	Shielded      int64
	VictimIPC     float64
	Slowdown      float64 // victim slowdown vs running alone
}

// TenantResult holds the two-tenant cross-tenant-flip study.
type TenantResult struct {
	VictimAloneIPC float64
	Rows           []TenantRow
}

// Tenant runs the attacker next to a traced victim under each mitigation
// and splits the flips by owning tenant: under the rowstripe translation
// the victim's rows interleave with the attacker's, so a double-sided
// attack flips rows the attacker never touched.
func Tenant(r *Runner) (TenantResult, error) {
	alone, err := r.Run(tenantVictimAlone())
	if err != nil {
		return TenantResult{}, err
	}
	res := TenantResult{VictimAloneIPC: alone.IPC[0]}
	for _, arm := range tenantArms() {
		rep, err := r.Run(arm.o)
		if err != nil {
			return TenantResult{}, err
		}
		row := TenantRow{
			Name:      arm.name,
			Shielded:  rep.ShieldedFlips,
			VictimIPC: rep.IPC[1],
			Slowdown:  metrics.Speedup(alone.IPC[0], rep.IPC[1]),
		}
		if len(rep.FlipsByCore) == 2 {
			row.AttackerFlips = rep.FlipsByCore[0]
			row.VictimFlips = rep.FlipsByCore[1]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the named tenant arm.
func (t TenantResult) Row(name string) TenantRow {
	for _, row := range t.Rows {
		if row.Name == name {
			return row
		}
	}
	return TenantRow{}
}

// Table renders the two-tenant scenario.
func (t TenantResult) Table() Table {
	tbl := Table{
		Title: "RowHammer lab: two-tenant attack (attacker + mcf victim, shared channels)",
		Header: []string{"mitigation", "attacker-row flips", "victim-row flips",
			"shielded", "victim IPC", "victim slowdown"},
		Notes: []string{
			"rowstripe translation interleaves tenants' rows, so double-sided",
			"aggressors flip the neighbouring tenant's rows; slowdown is vs the",
			fmt.Sprintf("victim running alone (IPC %.3f)", t.VictimAloneIPC),
		},
	}
	for _, row := range t.Rows {
		tbl.Rows = append(tbl.Rows, []string{
			row.Name,
			fmt.Sprint(row.AttackerFlips),
			fmt.Sprint(row.VictimFlips),
			fmt.Sprint(row.Shielded),
			fmt.Sprintf("%.3f", row.VictimIPC),
			pct(row.Slowdown),
		})
	}
	return tbl
}
