package sim

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/obs"
	"crowdram/internal/trace"
)

// benchRun executes one small single-core CROW-cache simulation with the
// given observer bundle (nil = observability absent entirely).
func benchRun(b *testing.B, bundle *obs.Observers) {
	b.Helper()
	cfg := DefaultFor(lpddr4, 8, dram.Density8Gb, 64)
	cfg.WarmupInsts = 2_000
	cfg.MeasureInsts = 20_000
	cfg.Obs = bundle
	app, err := trace.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
		mech.Cache = true
		res := New(cfg, mech, []trace.Generator{app.Gen(1)}).Run()
		if res.Ctrl.ReadsServed == 0 {
			b.Fatal("run served no reads")
		}
	}
}

// BenchmarkRunObsOff is the tracing-disabled case: no bundle at all, the
// per-command cost is one nil-slice check. CI's obs bench-smoke compares
// this against BenchmarkRunObsNil and fails if they diverge by more than 3%
// (an in-run A/B, immune to machine-to-machine noise).
func BenchmarkRunObsOff(b *testing.B) {
	benchRun(b, nil)
}

// BenchmarkRunObsNil is a configured-but-empty bundle: Enabled() is false,
// nothing attaches, and the run must cost the same as BenchmarkRunObsOff.
func BenchmarkRunObsNil(b *testing.B) {
	benchRun(b, &obs.Observers{})
}

// BenchmarkRunTraced runs with the full observability stack attached:
// event tracing into a ring sized for the whole run plus interval telemetry.
// The delta against BenchmarkRunObsOff is the tracing-on overhead.
func BenchmarkRunTraced(b *testing.B) {
	benchRun(b, &obs.Observers{
		TraceCapacity: 1 << 16, // comfortably holds the ~9k events this run emits
		SnapshotEvery: 10_000,
		OnSnapshot:    func(obs.IntervalSnapshot) {},
	})
}
