package sim

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/trace"
)

// BenchmarkRunBaseline runs a small single-core baseline simulation per
// iteration: the end-to-end tick hot path (cores, LLC, controllers, device)
// with idle skipping active. Run with -benchmem to watch the per-run
// allocation budget — the read path is pooled and must not allocate per
// request.
func BenchmarkRunBaseline(b *testing.B) {
	cfg := DefaultFor(lpddr4, 0, dram.Density8Gb, 64)
	cfg.WarmupInsts = 2_000
	cfg.MeasureInsts = 20_000
	app, err := trace.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{app.Gen(1)}).Run()
		if res.Ctrl.ReadsServed == 0 {
			b.Fatal("run served no reads")
		}
	}
}

// BenchmarkRunCPUBound runs crowperf's cpu-bound mix (povray, gcc, h264-enc,
// jp2-dec: MPKI below 1) on four cores per iteration: runs of bubbles on every
// core, between which the loop steps only the core that is due.
func BenchmarkRunCPUBound(b *testing.B) {
	cfg := DefaultFor(lpddr4, 0, dram.Density8Gb, 64)
	cfg.WarmupInsts = 2_000
	cfg.MeasureInsts = 20_000
	var apps []trace.App
	for _, name := range []string{"povray", "gcc", "h264-enc", "jp2-dec"} {
		app, err := trace.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, app)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gens := make([]trace.Generator, len(apps))
		for c, app := range apps {
			gens[c] = app.Gen(int64(1 + c))
		}
		if res := New(cfg, &core.Baseline{T: cfg.T}, gens).Run(); res.Truncated {
			b.Fatal("run was truncated")
		}
	}
}
