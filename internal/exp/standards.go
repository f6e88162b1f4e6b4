package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/dram"
	"crowdram/internal/metrics"
)

// StandardRow is one mechanism's result on a non-LPDDR4 memory standard.
type StandardRow struct {
	Name        string
	Speedup     float64 // vs the same standard's baseline
	HitRate     float64
	EnergyRatio float64
	RowHitRate  float64
	ReadNs      float64
}

// StandardResult holds the cross-standard study for one memory standard:
// CROW's mechanisms rebuilt on a different device, selected purely through
// crow.Options.Standard. The speedups answer the portability question the
// composable-standard refactor exists for — whether CROW's benefit survives
// a device with different timings, bank counts and refresh granularity.
type StandardResult struct {
	Standard string
	Rows     []StandardRow
}

func standardConfigs(std string) []struct {
	name string
	o    crow.Options
} {
	return []struct {
		name string
		o    crow.Options
	}{
		{"crow-cache (CROW-8)", crow.Options{Mechanism: crow.Cache, Standard: std}},
		{"crow-ref", crow.Options{Mechanism: crow.Ref, Standard: std}},
		{"crow-cache+ref", crow.Options{Mechanism: crow.CacheRef, Standard: std}},
	}
}

// StandardStudy runs CROW-cache, CROW-ref and their combination on the named
// standard's single-core suite, each against that standard's own baseline.
func StandardStudy(r *Runner, std string) (StandardResult, error) {
	res := StandardResult{Standard: std}
	for _, cfg := range standardConfigs(std) {
		var sp, en, hr, rh, lat []float64
		err := r.eachApp(crow.Options{Mechanism: crow.Baseline, Standard: std}, cfg.o, func(base, rep crow.Report) {
			sp = append(sp, metrics.Speedup(rep.IPC[0], base.IPC[0]))
			en = append(en, rep.EnergyNJ.Total()/base.EnergyNJ.Total())
			hr = append(hr, rep.CROWTableHitRate)
			rh = append(rh, rep.RowHitRate)
			lat = append(lat, rep.AvgReadLatencyNs)
		})
		if err != nil {
			return StandardResult{}, err
		}
		res.Rows = append(res.Rows, StandardRow{
			Name: cfg.name, Speedup: metrics.Mean(sp), HitRate: metrics.Mean(hr),
			EnergyRatio: metrics.Mean(en), RowHitRate: metrics.Mean(rh), ReadNs: metrics.Mean(lat),
		})
	}
	return res, nil
}

// Row returns the named design point.
func (s StandardResult) Row(name string) StandardRow {
	for _, row := range s.Rows {
		if row.Name == name {
			return row
		}
	}
	return StandardRow{}
}

// Table renders the cross-standard study.
func (s StandardResult) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("Extension: CROW mechanisms on %s (vs %s baseline)", s.Standard, s.Standard),
		Header: []string{"mechanism", "speedup", "table hit rate", "energy ratio", "row hits", "read ns"},
		Notes: []string{
			"same mechanisms, different device: only Options.Standard changed;",
			"timings, bank counts and refresh granularity come from the standard registry",
		},
	}
	for _, row := range s.Rows {
		t.Rows = append(t.Rows, []string{row.Name, pct(row.Speedup), pct2(row.HitRate),
			fmt.Sprintf("%.3f", row.EnergyRatio), pct2(row.RowHitRate), fmt.Sprintf("%.1f", row.ReadNs)})
	}
	return t
}

// standardExperiments returns one StandardStudy row per registered standard
// other than LPDDR4, the paper's device, which every other experiment
// already runs on: a standard added to internal/dram gets its experiment
// (and needs its golden) without an edit here.
func standardExperiments() []Experiment {
	var exps []Experiment
	for _, std := range dram.StandardNames() {
		if std == "lpddr4" {
			continue
		}
		exps = append(exps, Experiment{Name: std, Kind: Ablation,
			Table: tab(func(r *Runner) (StandardResult, error) { return StandardStudy(r, std) })})
	}
	return exps
}
