package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/dram"
)

// StandardStudy runs CROW-cache, CROW-ref and their combination on the named
// standard's single-core suite, each against that standard's own baseline:
// CROW's mechanisms rebuilt on a different device, selected purely through
// crow.Options.Standard. The speedups answer the portability question the
// composable-standard refactor exists for — whether CROW's benefit survives
// a device with different timings, bank counts and refresh granularity.
func StandardStudy(r *Runner, std string) (Study, error) {
	return r.study(Study{
		title: fmt.Sprintf("Extension: CROW mechanisms on %s (vs %s baseline)", std, std),
		key:   "mechanism",
		notes: []string{
			"same mechanisms, different device: only Options.Standard changed;",
			"timings, bank counts and refresh granularity come from the standard registry",
		},
		arms: []arm{
			{name: "crow-cache (CROW-8)", o: crow.Options{Mechanism: crow.Cache, Standard: std}},
			{name: "crow-ref", o: crow.Options{Mechanism: crow.Ref, Standard: std}},
			{name: "crow-cache+ref", o: crow.Options{Mechanism: crow.CacheRef, Standard: std}},
		},
		cols: []col{
			speedup("speedup"), {head: "table hit rate", of: tableHitRate, show: pct2}, energy("energy ratio"),
			{head: "row hits", of: func(_, rep crow.Report) float64 { return rep.RowHitRate }, show: pct2},
			{head: "read ns", of: func(_, rep crow.Report) float64 { return rep.AvgReadLatencyNs }, show: dec1},
		},
	}, crow.Options{Mechanism: crow.Baseline, Standard: std})
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
			Table: tab(func(r *Runner) (Study, error) { return StandardStudy(r, std) })})
	}
	return exps
}
