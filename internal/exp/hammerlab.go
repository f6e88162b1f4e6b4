package exp

import (
	"fmt"
	"math"

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

// mitigationArms returns the named mitigation arms over env, all under the
// same attacker and flip model: unmitigated, PARA at a low and a protective
// probability, the CROW-hammer remap, and refresh-rate scaling.
func mitigationArms(env crow.Options, names ...string) []arm {
	env.Mechanism = crow.Baseline
	arms := make([]arm, len(names))
	for i, name := range names {
		o := env
		switch name {
		case "unmitigated":
		case "para 1/1000":
			o.Mitigation, o.ParaPerMille = "para", 1
		case "para 100/1000":
			o.Mitigation, o.ParaPerMille = "para", 100
		case "crow-hammer":
			o.Mechanism, o.Mitigation, o.HammerThreshold = crow.Hammer, "crow-hammer", 128
		case "refresh x32":
			o.Mitigation, o.RefreshScale = "refresh-scale", 32
		default:
			panic("exp: unknown mitigation arm " + name)
		}
		arms[i] = arm{name: name, o: o}
	}
	return arms
}

// HammerLab runs every mitigation arm against the same double-sided
// attacker and reports protection (flips) against cost (slowdown, energy,
// extra refresh work) relative to the unmitigated run, the first arm.
func HammerLab(r *Runner) (Study, error) {
	s := Study{
		title: "RowHammer lab: flips vs mitigation overhead (double-sided attacker)",
		key:   "mitigation",
		notes: []string{
			"same attacker and flip model in every row; only the mitigation changes;",
			"slowdown and energy are relative to the unmitigated run",
		},
		arms: mitigationArms(hammerLabEnv(), "unmitigated", "para 1/1000", "para 100/1000", "crow-hammer", "refresh x32"),
		cols: []col{
			tally("flips", func(rep crow.Report) int64 { return rep.Flips }),
			tally("shielded", func(rep crow.Report) int64 { return rep.ShieldedFlips }),
			tally("victim rows", func(rep crow.Report) int64 { return int64(rep.FlipVictimRows) }),
			tally("remaps", func(rep crow.Report) int64 { return rep.HammerRemaps }),
			tally("para refreshes", func(rep crow.Report) int64 { return rep.MitigationRefreshes }),
			tally("REF", func(rep crow.Report) int64 { return rep.REF }),
			{head: "IPC", of: func(_, rep crow.Report) float64 { return rep.IPC[0] }, show: dec3},
			{head: "slowdown", of: slowdown, show: func(v float64) string {
				if math.IsInf(v, 1) {
					return "stalled"
				}
				return pct(v)
			}},
			energy("energy x"),
		},
	}
	base, err := r.Run(s.arms[0].o)
	if err != nil {
		return Study{}, err
	}
	return r.against(s, base)
}

// against fills s in from one run of each arm as it stands (the lab's arms
// name their own workloads), every column sampled against the one report
// base.
func (r *Runner) against(s Study, base crow.Report) (Study, error) {
	for i, a := range s.arms {
		rep, err := r.Run(a.o)
		if err != nil {
			return Study{}, err
		}
		s.observe(i, base, rep)
	}
	return s, nil
}

// slowdown is base's IPC over rep's. A starved arm (refresh scaling past the
// bandwidth cliff) makes no forward progress: its slowdown is unbounded, not
// the zero metrics.Speedup answers for a zero divisor.
func slowdown(base, rep crow.Report) float64 {
	if rep.IPC[0] == 0 {
		return math.Inf(1)
	}
	return metrics.Speedup(base.IPC[0], rep.IPC[0])
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

// tenantVictimAlone is the victim's no-attacker baseline: the same
// environment with only the victim running.
func tenantVictimAlone() crow.Options {
	o := tenantEnv()
	o.Mechanism = crow.Baseline
	o.Workloads = []string{"mcf"}
	return o
}

// Tenant runs the attacker next to a traced victim under each mitigation (a
// subset of the frontier's: unmitigated, one probabilistic and one
// deterministic defense) and splits the flips by owning tenant: under the
// rowstripe translation the victim's rows interleave with the attacker's, so
// a double-sided attack flips rows the attacker never touched. The baseline
// of every arm is the victim running alone.
func Tenant(r *Runner) (Study, error) {
	alone, err := r.Run(tenantVictimAlone())
	if err != nil {
		return Study{}, err
	}
	flipsOf := func(core int) func(crow.Report) int64 {
		return func(rep crow.Report) int64 {
			if len(rep.FlipsByCore) != 2 {
				return 0
			}
			return rep.FlipsByCore[core]
		}
	}
	return r.against(Study{
		title: "RowHammer lab: two-tenant attack (attacker + mcf victim, shared channels)",
		key:   "mitigation",
		notes: []string{
			"rowstripe translation interleaves tenants' rows, so double-sided",
			"aggressors flip the neighbouring tenant's rows; slowdown is vs the",
			fmt.Sprintf("victim running alone (IPC %.3f)", alone.IPC[0]),
		},
		arms: mitigationArms(tenantEnv(), "unmitigated", "para 100/1000", "crow-hammer"),
		cols: []col{
			tally("attacker-row flips", flipsOf(0)),
			tally("victim-row flips", flipsOf(1)),
			tally("shielded", func(rep crow.Report) int64 { return rep.ShieldedFlips }),
			{head: "victim IPC", of: func(_, rep crow.Report) float64 { return rep.IPC[1] }, show: dec3},
			{head: "victim slowdown", show: pct,
				of: func(alone, rep crow.Report) float64 { return metrics.Speedup(alone.IPC[0], rep.IPC[1]) }},
		},
	}, alone)
}
