package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/metrics"
)

// LatCompareRow is one latency-mechanism design point.
type LatCompareRow struct {
	Name        string
	Speedup     float64
	HitRate     float64
	EnergyRatio float64
}

// LatCompareResult compares CROW-cache with the related-work latency
// mechanisms of Section 9.
type LatCompareResult struct{ Rows []LatCompareRow }

func latCompareConfigs() []struct {
	name string
	o    crow.Options
} {
	return []struct {
		name string
		o    crow.Options
	}{
		{"crow-cache (CROW-8)", crow.Options{Mechanism: crow.Cache}},
		{"chargecache", crow.Options{Mechanism: crow.ChargeCache}},
		{"ideal crow-cache", crow.Options{Mechanism: crow.IdealCache}},
	}
}

// LatencyComparison pits CROW-cache against ChargeCache [26] (short-lived
// highly-charged-row reuse) on the single-core suite. The paper argues
// CROW-cache captures more in-DRAM locality because a duplicated row stays
// fast indefinitely, while ChargeCache's benefit decays within ~1 ms.
func LatencyComparison(r *Runner) (LatCompareResult, error) {
	var res LatCompareResult
	for _, cfg := range latCompareConfigs() {
		var sp, en, hr []float64
		err := r.eachApp(crow.Options{Mechanism: crow.Baseline}, cfg.o, func(base, rep crow.Report) {
			sp = append(sp, metrics.Speedup(rep.IPC[0], base.IPC[0]))
			en = append(en, rep.EnergyNJ.Total()/base.EnergyNJ.Total())
			hr = append(hr, rep.CROWTableHitRate)
		})
		if err != nil {
			return LatCompareResult{}, err
		}
		res.Rows = append(res.Rows, LatCompareRow{
			Name: cfg.name, Speedup: metrics.Mean(sp),
			HitRate: metrics.Mean(hr), EnergyRatio: metrics.Mean(en),
		})
	}
	return res, nil
}

// Row returns the named design point.
func (l LatCompareResult) Row(name string) LatCompareRow {
	for _, row := range l.Rows {
		if row.Name == name {
			return row
		}
	}
	return LatCompareRow{}
}

// Table renders the latency-mechanism comparison.
func (l LatCompareResult) Table() Table {
	t := Table{
		Title:  "Extension: CROW-cache vs ChargeCache (Section 9 related work)",
		Header: []string{"mechanism", "speedup", "hit rate", "energy ratio"},
		Notes:  []string{"ChargeCache's benefit expires ~1 ms after a precharge; CROW's copy rows stay fast"},
	}
	for _, row := range l.Rows {
		t.Rows = append(t.Rows, []string{row.Name, pct(row.Speedup), pct2(row.HitRate), fmt.Sprintf("%.3f", row.EnergyRatio)})
	}
	return t
}

// RefreshModeRow is one refresh-mode design point.
type RefreshModeRow struct {
	Name    string
	Speedup float64 // vs strict all-bank refresh
	Energy  float64 // normalized
}

// RefreshModeResult holds the refresh-mode study.
type RefreshModeResult struct{ Rows []RefreshModeRow }

func refreshModeConfigs() []struct {
	name string
	mod  func(*crow.Options)
} {
	return []struct {
		name string
		mod  func(*crow.Options)
	}{
		{"REFab + postpone-8", func(o *crow.Options) { o.RefreshPostpone = 8 }},
		{"REFpb", func(o *crow.Options) { o.PerBankRefresh = true }},
		{"REFpb + postpone-8", func(o *crow.Options) { o.PerBankRefresh = true; o.RefreshPostpone = 8 }},
		{"REFab + crow-ref", func(o *crow.Options) { o.Mechanism = crow.Ref }},
		{"REFpb + crow-ref", func(o *crow.Options) { o.PerBankRefresh = true; o.Mechanism = crow.Ref }},
	}
}

// RefreshModes studies the controller's refresh machinery at 64 Gbit, where
// refresh pressure is highest: all-bank REFab (Table 2 default), elastic
// postponement of up to 8 REFs [107], LPDDR4 per-bank REFpb, and both.
// These are orthogonal to (and compose with) CROW-ref.
func RefreshModes(r *Runner) (RefreshModeResult, error) {
	var res RefreshModeResult
	for _, cfg := range refreshModeConfigs() {
		var sp, en []float64
		base := crow.Options{Mechanism: crow.Baseline, DensityGbit: 64}
		arm := base
		cfg.mod(&arm)
		err := r.eachApp(base, arm, func(base, rep crow.Report) {
			sp = append(sp, metrics.Speedup(rep.IPC[0], base.IPC[0]))
			en = append(en, rep.EnergyNJ.Total()/base.EnergyNJ.Total())
		})
		if err != nil {
			return RefreshModeResult{}, err
		}
		res.Rows = append(res.Rows, RefreshModeRow{Name: cfg.name, Speedup: metrics.Mean(sp), Energy: metrics.Mean(en)})
	}
	return res, nil
}

// Row returns the named design point.
func (m RefreshModeResult) Row(name string) RefreshModeRow {
	for _, row := range m.Rows {
		if row.Name == name {
			return row
		}
	}
	return RefreshModeRow{}
}

// Table renders the refresh-mode study.
func (m RefreshModeResult) Table() Table {
	t := Table{
		Title:  "Extension: refresh modes at 64 Gbit (vs strict all-bank REFab)",
		Header: []string{"mode", "speedup", "energy ratio"},
		Notes: []string{
			"naive REFpb can hurt low-MLP workloads: thinly-spread per-bank blocking stalls",
			"serial request chains, while REFab batches the stalls - the effect motivating",
			"refresh-aware scheduling (DSARP [7]); CROW-ref attacks the root cause instead",
		},
	}
	for _, row := range m.Rows {
		t.Rows = append(t.Rows, []string{row.Name, pct(row.Speedup), fmt.Sprintf("%.3f", row.Energy)})
	}
	return t
}
