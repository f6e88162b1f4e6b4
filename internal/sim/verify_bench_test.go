package sim

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/trace"
)

// benchVerify runs a small single-core CROW-cache simulation per iteration,
// with or without the correctness oracle, so comparing the two benchmarks
// gives the end-to-end verify-mode overhead of a full system run (controller,
// device, and oracle together rather than the raw channel loop).
func benchVerify(b *testing.B, verify bool) {
	cfg := DefaultFor(lpddr4, 8, dram.Density8Gb, 64)
	cfg.Verify = verify
	cfg.WarmupInsts = 2_000
	cfg.MeasureInsts = 20_000
	app, err := trace.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
		mech.Cache = true
		res := New(cfg, mech, []trace.Generator{app.Gen(1)}).Run()
		if verify && res.Verify.Total() != 0 {
			b.Fatalf("oracle violations in benchmark run: %v", res.Verify.Counts)
		}
	}
}

func BenchmarkRunVerifyOff(b *testing.B) { benchVerify(b, false) }
func BenchmarkRunVerifyOn(b *testing.B)  { benchVerify(b, true) }
