package sim

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/retention"
	"crowdram/internal/trace"
)

// TestVRTDynamicRemapping exercises Section 4.2.3 end to end: a periodic
// profiling pass discovers newly-weak VRT cells between execution intervals
// and remaps them at runtime via ACT-c, without disturbing correctness of
// the running simulation.
func TestVRTDynamicRemapping(t *testing.T) {
	cfg := Default(8, dram.Density8Gb, 64)
	cfg.WarmupInsts = 2_000
	cfg.MeasureInsts = 20_000
	g := cfg.Geo

	rg := retention.Geometry{
		Channels: cfg.Channels, Ranks: g.Ranks, Banks: g.Banks,
		Subarrays: g.SubarraysPerBank(), RowsPerSubarray: g.RowsPerSubarray,
	}
	profile := retention.FixedProfile(rg, 1, 7)
	vrt := retention.NewVRTModel(rg, 50, 0.4, 11)

	mech := core.NewCROW(cfg.Channels, g, cfg.T)
	mech.Cache = true
	mech.Ref = true
	mech.LoadProfile(profile)

	app, _ := trace.ByName("mcf")
	s := New(cfg, mech, []trace.Generator{app.Gen(1)})

	// Interleave profiling intervals with execution: step the VRT model,
	// discover newly-weak rows, and remap them dynamically.
	remapped := 0
	for interval := 0; interval < 3; interval++ {
		vrt.Step()
		for _, c := range vrt.NewlyWeak(profile) {
			a := dram.Addr{Channel: c.Channel, Rank: c.Rank, Bank: c.Bank,
				Row: c.Subarray*g.RowsPerSubarray + c.Row}
			if mech.RemapDynamic(a) {
				profile.Add(c)
				remapped++
			}
		}
	}
	if remapped == 0 {
		t.Fatal("the VRT model must surface newly-weak rows to remap")
	}

	res := s.Run()
	if res.IPC[0] <= 0 {
		t.Fatal("simulation must complete after dynamic remaps")
	}
	// The queued ACT-c data copies must have been executed (they drain
	// during warmup, so check the raw controller counters).
	var copies int64
	for _, c := range s.Ctrls {
		copies += c.Stats.MechCopies
	}
	if copies == 0 {
		t.Error("dynamic remaps must trigger controller-issued ACT-c copies")
	}
	if mech.RefreshMultiplier() != 2 {
		t.Error("with free copy rows remaining, the extended window must hold")
	}
}
