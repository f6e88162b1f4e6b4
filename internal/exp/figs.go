package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/metrics"
	"crowdram/internal/trace"
)

// Fig8Result holds Figure 8's data: per-application single-core speedup and
// CROW-table hit rate for CROW-1/8/256 and the ideal CROW-cache.
type Fig8Result struct {
	Configs []int // copy-row counts
	Apps    []string
	MPKI    map[string]float64
	Speedup map[int]map[string]float64 // config -> app -> speedup
	HitRate map[int]map[string]float64
	Ideal   map[string]float64

	AvgSpeedup map[int]float64
	AvgHitRate map[int]float64
	AvgIdeal   float64
	// RestoreShare is the fraction of all activations that were
	// eviction-driven full-restore operations, for CROW-1 (paper: 0.6 %).
	RestoreShare float64
}

var fig8Configs = []int{1, 8, 256}

// Fig8 runs the single-core CROW-cache evaluation.
func Fig8(r *Runner) (Fig8Result, error) {
	res := Fig8Result{
		Configs: fig8Configs,
		MPKI:    map[string]float64{},
		Speedup: map[int]map[string]float64{},
		HitRate: map[int]map[string]float64{},
		Ideal:   map[string]float64{},
	}
	for _, c := range fig8Configs {
		res.Speedup[c] = map[string]float64{}
		res.HitRate[c] = map[string]float64{}
	}
	var restoreOps, acts int64
	for _, app := range r.singleApps() {
		res.Apps = append(res.Apps, app.Name)
		base, err := r.Run(crow.Options{Mechanism: crow.Baseline, Workloads: []string{app.Name}})
		if err != nil {
			return Fig8Result{}, err
		}
		res.MPKI[app.Name] = base.MPKI[0]
		for _, c := range fig8Configs {
			rep, err := r.Run(crow.Options{Mechanism: crow.Cache, CopyRows: c, Workloads: []string{app.Name}})
			if err != nil {
				return Fig8Result{}, err
			}
			res.Speedup[c][app.Name] = ipcGain(base, rep)
			res.HitRate[c][app.Name] = rep.CROWTableHitRate
			if c == 1 {
				restoreOps += rep.RestoreOps
				acts += rep.ACT + rep.ACTt + rep.ACTc
			}
		}
		ideal, err := r.Run(crow.Options{Mechanism: crow.IdealCache, Workloads: []string{app.Name}})
		if err != nil {
			return Fig8Result{}, err
		}
		res.Ideal[app.Name] = ipcGain(base, ideal)
	}
	res.AvgSpeedup = map[int]float64{}
	res.AvgHitRate = map[int]float64{}
	for _, c := range fig8Configs {
		var sp, hr []float64
		for _, a := range res.Apps {
			sp = append(sp, res.Speedup[c][a])
			hr = append(hr, res.HitRate[c][a])
		}
		res.AvgSpeedup[c] = metrics.Mean(sp)
		res.AvgHitRate[c] = metrics.Mean(hr)
	}
	var id []float64
	for _, a := range res.Apps {
		id = append(id, res.Ideal[a])
	}
	res.AvgIdeal = metrics.Mean(id)
	if acts > 0 {
		res.RestoreShare = float64(restoreOps) / float64(acts)
	}
	return res, nil
}

// Table renders Figure 8.
func (f Fig8Result) Table() Table {
	t := Table{
		Title:  "Figure 8: single-core CROW-cache speedup and CROW-table hit rate",
		Header: []string{"app", "MPKI", "CROW-1", "CROW-8", "CROW-256", "Ideal", "hit-1", "hit-8", "hit-256"},
		Notes: []string{
			fmt.Sprintf("avg speedup CROW-1/8/256 = %s / %s / %s (paper: +5.5%% / +7.1%% / +7.8%%)",
				pct(f.AvgSpeedup[1]), pct(f.AvgSpeedup[8]), pct(f.AvgSpeedup[256])),
			fmt.Sprintf("avg hit rate CROW-1/8/256 = %s / %s / %s (paper: 68.8%% / 85.3%% / 91.1%%)",
				pct2(f.AvgHitRate[1]), pct2(f.AvgHitRate[8]), pct2(f.AvgHitRate[256])),
			fmt.Sprintf("CROW-1 restore ops = %s of activations (paper: 0.6%%)", pct2(f.RestoreShare)),
		},
	}
	for _, a := range f.Apps {
		t.Rows = append(t.Rows, []string{
			a, dec1(f.MPKI[a]),
			pct(f.Speedup[1][a]), pct(f.Speedup[8][a]), pct(f.Speedup[256][a]), pct(f.Ideal[a]),
			pct2(f.HitRate[1][a]), pct2(f.HitRate[8][a]), pct2(f.HitRate[256][a]),
		})
	}
	return t
}

// GroupStat is one workload group's speedup distribution.
type GroupStat struct{ Avg, Min, Max float64 }

// Fig9Result holds Figure 9's data: four-core weighted speedup per workload
// group for CROW-1, CROW-8 and the ideal CROW-cache.
type Fig9Result struct {
	Groups  []string
	Configs []string // "CROW-1", "CROW-8", "Ideal"
	Stats   map[string]map[string]GroupStat
}

var fig9Arms = []arm{
	{name: "CROW-1", o: crow.Options{Mechanism: crow.Cache, CopyRows: 1}},
	{name: "CROW-8", o: crow.Options{Mechanism: crow.Cache, CopyRows: 8}},
	{name: "Ideal", o: crow.Options{Mechanism: crow.IdealCache}},
}

// fig9Mixes returns the group's mixes (Figure 10 reuses them).
func fig9Mixes(r *Runner, gi int, classes []trace.Class) []trace.Mix {
	return trace.MakeMixes(classes, r.Scale.MixesPerGroup, r.Scale.Seed+int64(gi))
}

// Fig9 runs the four-core CROW-cache evaluation.
func Fig9(r *Runner) (Fig9Result, error) {
	res := Fig9Result{Stats: map[string]map[string]GroupStat{}}
	for _, a := range fig9Arms {
		res.Configs = append(res.Configs, a.name)
	}
	for gi, classes := range trace.Groups {
		gname := trace.GroupName(classes)
		res.Groups = append(res.Groups, gname)
		sp := make([][]float64, len(fig9Arms))
		err := r.eachMix(fig9Mixes(r, gi, classes), fig9Arms,
			func(i int, c crow.Comparison) { sp[i] = append(sp[i], c.Speedup) })
		if err != nil {
			return Fig9Result{}, err
		}
		res.Stats[gname] = map[string]GroupStat{}
		for i, a := range fig9Arms {
			min, max := metrics.MinMax(sp[i])
			res.Stats[gname][a.name] = GroupStat{Avg: metrics.Mean(sp[i]), Min: min, Max: max}
		}
	}
	return res, nil
}

// Avg returns the mean speedup of a config across all groups.
func (f Fig9Result) Avg(config string) float64 {
	var v []float64
	for _, g := range f.Groups {
		v = append(v, f.Stats[g][config].Avg)
	}
	return metrics.Mean(v)
}

// Table renders Figure 9.
func (f Fig9Result) Table() Table {
	t := Table{
		Title:  "Figure 9: four-core weighted speedup by workload group",
		Header: []string{"group", "CROW-1", "CROW-8", "Ideal", "CROW-8 min..max"},
		Notes: []string{
			fmt.Sprintf("avg CROW-8 = %s; paper: +7.4%% for HHHH, +0.4%% for LLLL", pct(f.Avg("CROW-8"))),
		},
	}
	for _, g := range f.Groups {
		s := f.Stats[g]
		t.Rows = append(t.Rows, []string{
			g, pct(s["CROW-1"].Avg), pct(s["CROW-8"].Avg), pct(s["Ideal"].Avg),
			fmt.Sprintf("%s..%s", pct(s["CROW-8"].Min), pct(s["CROW-8"].Max)),
		})
	}
	return t
}

// Fig10Result holds Figure 10's data: normalized DRAM energy with
// CROW-cache for single-core and four-core workloads.
type Fig10Result struct {
	SingleCore float64 // CROW-8 energy / baseline energy, averaged
	FourCore   float64
}

// Fig10 runs the CROW-cache energy evaluation.
func Fig10(r *Runner) (Fig10Result, error) {
	var res Fig10Result
	var single []float64
	err := r.eachApp(crow.Options{Mechanism: crow.Baseline},
		crow.Options{Mechanism: crow.Cache, CopyRows: 8}, func(base, rep crow.Report) {
			single = append(single, energyRatio(base, rep))
		})
	if err != nil {
		return Fig10Result{}, err
	}
	res.SingleCore = metrics.Mean(single)

	var four []float64
	for gi, classes := range trace.Groups {
		if trace.GroupName(classes) == "LLLL" {
			continue // negligible DRAM activity
		}
		for _, mix := range fig9Mixes(r, gi, classes) {
			apps := trace.Names(mix.Apps)
			base, err := r.Run(crow.Options{Mechanism: crow.Baseline, Workloads: apps})
			if err != nil {
				return Fig10Result{}, err
			}
			rep, err := r.Run(crow.Options{Mechanism: crow.Cache, CopyRows: 8, Workloads: apps})
			if err != nil {
				return Fig10Result{}, err
			}
			four = append(four, energyRatio(base, rep))
		}
	}
	res.FourCore = metrics.Mean(four)
	return res, nil
}

// Table renders Figure 10.
func (f Fig10Result) Table() Table {
	return Table{
		Title:  "Figure 10: DRAM energy with CROW-cache (normalized to baseline)",
		Header: []string{"workloads", "normalized energy", "paper"},
		Rows: [][]string{
			{"single-core", dec3(f.SingleCore), "0.918 (-8.2%)"},
			{"four-core", dec3(f.FourCore), "0.931 (-6.9%)"},
		},
	}
}

// Fig11 runs the baseline-comparison evaluation: CROW-cache against TL-DRAM
// and SALP, each on the single-core suite.
func Fig11(r *Runner) (Study, error) {
	return r.study(Study{
		title: "Figure 11: CROW-cache vs TL-DRAM vs SALP (single-core)",
		key:   "config",
		notes: []string{
			"paper: CROW-8 +7.1% / -8.2% energy / 0.48% area;",
			"TL-DRAM-8 +13.8% speedup but 6.9% area; SALP-256-O +58.4% energy, 28.9% area",
		},
		arms: []arm{
			{name: "CROW-1", o: crow.Options{Mechanism: crow.Cache, CopyRows: 1}},
			{name: "CROW-8", o: crow.Options{Mechanism: crow.Cache, CopyRows: 8}},
			{name: "TL-DRAM-1", o: crow.Options{Mechanism: crow.TLDRAM, TLDRAMNearRows: 1}},
			{name: "TL-DRAM-8", o: crow.Options{Mechanism: crow.TLDRAM, TLDRAMNearRows: 8}},
			{name: "SALP-128", o: crow.Options{Mechanism: crow.SALP, SALPSubarrays: 128}},
			{name: "SALP-128-O", o: crow.Options{Mechanism: crow.SALP, SALPSubarrays: 128, RowPolicy: "open"}},
			{name: "SALP-256-O", o: crow.Options{Mechanism: crow.SALP, SALPSubarrays: 256, RowPolicy: "open"}},
		},
		cols: []col{
			speedup("speedup"), energy("energy ratio"),
			{head: "chip area ovh", of: func(_, rep crow.Report) float64 { return rep.ChipAreaOverhead }, show: pct2, fold: last},
		},
	}, crow.Options{Mechanism: crow.Baseline})
}

// Fig12Row is one application's prefetcher interaction data.
type Fig12Row struct {
	App              string
	Pref, CROW, Both float64 // speedup vs no-prefetch baseline
}

// Fig12Result holds Figure 12's data.
type Fig12Result struct {
	Rows []Fig12Row
	// AvgGain is the average speedup of prefetcher+CROW-cache over the
	// prefetcher alone (paper: +5.7 %).
	AvgGain float64
}

// fig12Apps is Figure 12's representative workload sample (as the paper
// uses), unless the scale restricts the suite.
func fig12Apps(r *Runner) []string {
	if r.Scale.SingleApps != nil {
		return r.Scale.SingleApps
	}
	return []string{"libq", "lbm", "mcf", "soplex", "omnetpp", "stream-copy"}
}

// Fig12 runs the prefetcher-interaction evaluation on a representative
// sample of workloads (as the paper does).
func Fig12(r *Runner) (Fig12Result, error) {
	var res Fig12Result
	var gains []float64
	for _, app := range fig12Apps(r) {
		w := []string{app}
		base, err := r.Run(crow.Options{Mechanism: crow.Baseline, Workloads: w})
		if err != nil {
			return Fig12Result{}, err
		}
		pref, err := r.Run(crow.Options{Mechanism: crow.Baseline, Workloads: w, Prefetch: true})
		if err != nil {
			return Fig12Result{}, err
		}
		cache, err := r.Run(crow.Options{Mechanism: crow.Cache, Workloads: w})
		if err != nil {
			return Fig12Result{}, err
		}
		both, err := r.Run(crow.Options{Mechanism: crow.Cache, Workloads: w, Prefetch: true})
		if err != nil {
			return Fig12Result{}, err
		}
		res.Rows = append(res.Rows, Fig12Row{
			App: app, Pref: ipcGain(base, pref), CROW: ipcGain(base, cache), Both: ipcGain(base, both),
		})
		gains = append(gains, ipcGain(pref, both))
	}
	res.AvgGain = metrics.Mean(gains)
	return res, nil
}

// Table renders Figure 12.
func (f Fig12Result) Table() Table {
	t := Table{
		Title:  "Figure 12: CROW-cache and prefetching (speedup vs no-prefetch baseline)",
		Header: []string{"app", "prefetcher", "CROW-cache", "prefetcher+CROW"},
		Notes:  []string{fmt.Sprintf("CROW-cache adds %s on top of the prefetcher (paper: +5.7%%)", pct(f.AvgGain))},
	}
	for _, r := range f.Rows {
		t.Rows = append(t.Rows, []string{r.App, pct(r.Pref), pct(r.CROW), pct(r.Both)})
	}
	return t
}

// Fig13Point is one density's CROW-ref result.
type Fig13Point struct {
	DensityGbit   int
	SingleSpeedup float64
	SingleEnergy  float64 // normalized
	FourSpeedup   float64
	FourEnergy    float64
}

// Fig13Result holds Figure 13's data.
type Fig13Result struct{ Points []Fig13Point }

var fig13Densities = []int{8, 16, 32, 64}

// fig13Mixes returns Figure 13's HHHH mixes (shared seed with Figure 14).
func fig13Mixes(r *Runner) []trace.Mix {
	return trace.MakeMixes([]trace.Class{trace.High, trace.High, trace.High, trace.High},
		r.Scale.MixesPerGroup, r.Scale.Seed+4)
}

// Fig13 runs the CROW-ref evaluation across chip densities.
func Fig13(r *Runner) (Fig13Result, error) {
	var res Fig13Result
	hhhh := fig13Mixes(r)
	for _, d := range fig13Densities {
		p := Fig13Point{DensityGbit: d}
		var sp, en, fsp, fen []float64
		err := r.eachApp(crow.Options{Mechanism: crow.Baseline, DensityGbit: d},
			crow.Options{Mechanism: crow.Ref, DensityGbit: d}, func(base, rep crow.Report) {
				sp = append(sp, ipcGain(base, rep))
				en = append(en, energyRatio(base, rep))
			})
		if err != nil {
			return Fig13Result{}, err
		}
		p.SingleSpeedup = metrics.Mean(sp)
		p.SingleEnergy = metrics.Mean(en)

		ref := []arm{{o: crow.Options{Mechanism: crow.Ref, DensityGbit: d}}}
		err = r.eachMix(hhhh, ref, func(_ int, c crow.Comparison) {
			fsp = append(fsp, c.Speedup)
			fen = append(fen, c.EnergyRatio)
		})
		if err != nil {
			return Fig13Result{}, err
		}
		p.FourSpeedup = metrics.Mean(fsp)
		p.FourEnergy = metrics.Mean(fen)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Point returns the result at the given density.
func (f Fig13Result) Point(densityGbit int) Fig13Point {
	for _, p := range f.Points {
		if p.DensityGbit == densityGbit {
			return p
		}
	}
	return Fig13Point{}
}

// Table renders Figure 13.
func (f Fig13Result) Table() Table {
	t := Table{
		Title:  "Figure 13: CROW-ref speedup and DRAM energy vs chip density",
		Header: []string{"density", "1-core speedup", "1-core energy", "4-core (HHHH) speedup", "4-core energy"},
		Notes:  []string{"paper (64 Gbit): +7.1%/-17.2% single-core, +11.9%/-7.8% four-core"},
	}
	for _, p := range f.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d Gbit", p.DensityGbit),
			pct(p.SingleSpeedup), dec3(p.SingleEnergy),
			pct(p.FourSpeedup), dec3(p.FourEnergy),
		})
	}
	return t
}

// Fig14Point is one (LLC size, mechanism) cell.
type Fig14Point struct {
	Speedup float64
	Energy  float64 // normalized to the baseline at the same LLC size
}

// Fig14Result holds Figure 14's data: the combined mechanisms across LLC
// capacities, versus the ideal.
type Fig14Result struct {
	LLCMiB []int
	Mechs  []string
	Cells  map[int]map[string]Fig14Point
}

var fig14LLCMiB = []int{1, 8, 32}

var fig14Arms = []arm{
	{name: "cache", o: crow.Options{Mechanism: crow.Cache}},
	{name: "ref", o: crow.Options{Mechanism: crow.Ref}},
	{name: "cache+ref", o: crow.Options{Mechanism: crow.CacheRef}},
	{name: "ideal", o: crow.Options{Mechanism: crow.IdealNoRefresh}},
}

// fig14Mixes returns Figure 14's HHHH + MMHH mixes.
func fig14Mixes(r *Runner) []trace.Mix {
	return append(fig13Mixes(r), trace.MakeMixes([]trace.Class{trace.Medium, trace.Medium, trace.High, trace.High},
		r.Scale.MixesPerGroup, r.Scale.Seed+7)...)
}

// Fig14 runs the combined CROW-cache + CROW-ref evaluation across LLC
// capacities on four-core mixes at 64 Gbit density.
func Fig14(r *Runner) (Fig14Result, error) {
	res := Fig14Result{LLCMiB: fig14LLCMiB, Cells: map[int]map[string]Fig14Point{}}
	mixes := fig14Mixes(r)
	for _, mib := range res.LLCMiB {
		env := crow.Options{DensityGbit: 64, LLCBytes: int64(mib) << 20}
		arms := make([]arm, len(fig14Arms))
		for i, a := range fig14Arms {
			arms[i] = arm{name: a.name, o: env}
			arms[i].o.Mechanism = a.o.Mechanism
		}
		sp := make([][]float64, len(arms))
		en := make([][]float64, len(arms))
		err := r.eachMix(mixes, arms, func(i int, c crow.Comparison) {
			sp[i] = append(sp[i], c.Speedup)
			en[i] = append(en[i], c.EnergyRatio)
		})
		if err != nil {
			return Fig14Result{}, err
		}
		res.Cells[mib] = map[string]Fig14Point{}
		for i, a := range arms {
			res.Cells[mib][a.name] = Fig14Point{Speedup: metrics.Mean(sp[i]), Energy: metrics.Mean(en[i])}
		}
	}
	for _, a := range fig14Arms {
		res.Mechs = append(res.Mechs, a.name)
	}
	return res, nil
}

// Table renders Figure 14.
func (f Fig14Result) Table() Table {
	t := Table{
		Title:  "Figure 14: CROW-(cache+ref) vs LLC capacity (four-core, 64 Gbit)",
		Header: []string{"LLC", "cache", "ref", "cache+ref", "ideal", "energy cache+ref", "energy ideal"},
		Notes:  []string{"paper (8 MiB LLC): cache+ref +20.0% speedup, -22.3% energy; combined > either alone"},
	}
	for _, mib := range f.LLCMiB {
		c := f.Cells[mib]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d MiB", mib),
			pct(c["cache"].Speedup), pct(c["ref"].Speedup),
			pct(c["cache+ref"].Speedup), pct(c["ideal"].Speedup),
			dec3(c["cache+ref"].Energy),
			dec3(c["ideal"].Energy),
		})
	}
	return t
}
