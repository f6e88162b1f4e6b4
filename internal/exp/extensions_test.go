package exp

import "testing"

func TestLatencyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	s := tinyScale()
	s.Insts = 60_000
	s.Warmup = 6_000
	r := NewRunner(s)
	res, err := LatencyComparison(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Table().Rows); n != 3 {
		t.Fatalf("want 3 rows, got %d", n)
	}
	crow := res.At("crow-cache (CROW-8)", "speedup")
	if crow <= 0 {
		t.Errorf("CROW-cache must speed up: %+.3f", crow)
	}
	if ideal := res.At("ideal crow-cache", "speedup"); ideal < crow-0.01 {
		t.Errorf("ideal (%.3f) must bound real CROW (%.3f)", ideal, crow)
	}
	if hr := res.At("chargecache", "hit rate"); hr < 0 || hr > 1 {
		t.Errorf("chargecache hit rate %f out of range", hr)
	}
}

func TestRefreshModes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	s := tinyScale()
	s.Insts = 150_000
	s.Warmup = 15_000
	s.SingleApps = []string{"mcf"}
	r := NewRunner(s)
	res, err := RefreshModes(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Table().Rows); n != 5 {
		t.Fatalf("want 5 modes, got %d", n)
	}
	// Naive per-bank refresh spreads blocking thinly across time, which
	// can HURT low-MLP workloads whose serial request chains stall on any
	// blocked bank (the observation motivating refresh-aware scheduling,
	// DSARP [7]); all we require is a sane range.
	if pb := res.At("REFpb", "speedup"); pb < -0.5 || pb > 0.3 {
		t.Errorf("REFpb speedup out of plausible range: %+.3f", pb)
	}
	if cr := res.At("REFab + crow-ref", "speedup"); cr <= 0 {
		t.Errorf("CROW-ref must speed up at 64 Gbit: %+.3f", cr)
	}
}
