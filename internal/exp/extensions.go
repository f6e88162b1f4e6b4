package exp

import "crowdram/crow"

func tableHitRate(_, rep crow.Report) float64 { return rep.CROWTableHitRate }

// LatencyComparison pits CROW-cache against ChargeCache [26] (short-lived
// highly-charged-row reuse) on the single-core suite. The paper argues
// CROW-cache captures more in-DRAM locality because a duplicated row stays
// fast indefinitely, while ChargeCache's benefit decays within ~1 ms.
func LatencyComparison(r *Runner) (Study, error) {
	return r.study(Study{
		title: "Extension: CROW-cache vs ChargeCache (Section 9 related work)",
		key:   "mechanism",
		notes: []string{"ChargeCache's benefit expires ~1 ms after a precharge; CROW's copy rows stay fast"},
		arms: []arm{
			{name: "crow-cache (CROW-8)", o: crow.Options{Mechanism: crow.Cache}},
			{name: "chargecache", o: crow.Options{Mechanism: crow.ChargeCache}},
			{name: "ideal crow-cache", o: crow.Options{Mechanism: crow.IdealCache}},
		},
		cols: []col{speedup("speedup"), {head: "hit rate", of: tableHitRate, show: pct2}, energy("energy ratio")},
	}, crow.Options{Mechanism: crow.Baseline})
}

// RefreshModes studies the controller's refresh machinery at 64 Gbit, where
// refresh pressure is highest: all-bank REFab (Table 2 default), elastic
// postponement of up to 8 REFs [107], LPDDR4 per-bank REFpb, and both.
// These are orthogonal to (and compose with) CROW-ref. Speedup and energy
// are against strict all-bank refresh.
func RefreshModes(r *Runner) (Study, error) {
	return r.study(Study{
		title: "Extension: refresh modes at 64 Gbit (vs strict all-bank REFab)",
		key:   "mode",
		notes: []string{
			"naive REFpb can hurt low-MLP workloads: thinly-spread per-bank blocking stalls",
			"serial request chains, while REFab batches the stalls - the effect motivating",
			"refresh-aware scheduling (DSARP [7]); CROW-ref attacks the root cause instead",
		},
		arms: []arm{
			{name: "REFab + postpone-8", o: crow.Options{Mechanism: crow.Baseline, DensityGbit: 64, RefreshPostpone: 8}},
			{name: "REFpb", o: crow.Options{Mechanism: crow.Baseline, DensityGbit: 64, PerBankRefresh: true}},
			{name: "REFpb + postpone-8", o: crow.Options{Mechanism: crow.Baseline, DensityGbit: 64, PerBankRefresh: true, RefreshPostpone: 8}},
			{name: "REFab + crow-ref", o: crow.Options{Mechanism: crow.Ref, DensityGbit: 64}},
			{name: "REFpb + crow-ref", o: crow.Options{Mechanism: crow.Ref, DensityGbit: 64, PerBankRefresh: true}},
		},
		cols: []col{speedup("speedup"), energy("energy ratio")},
	}, crow.Options{Mechanism: crow.Baseline, DensityGbit: 64})
}
