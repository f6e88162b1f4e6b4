package energy

import (
	"math"
	"testing"

	"crowdram/internal/dram"
)

// TestPerBankRefreshEnergyParity: a full round of per-bank refreshes, one
// per bank, refreshes the same rows as one REFab and must cost the same total
// energy, on every standard's geometry (8 banks on LPDDR4 and DDR4, 16 on
// HBM2 and LPDDR5, 32 on DDR5).
func TestPerBankRefreshEnergyParity(t *testing.T) {
	p := DefaultParams()
	for _, name := range dram.StandardNames() {
		s, err := dram.StandardByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := s.Geometry(0)
		tm := s.Timing(dram.Density8Gb, s.RefWindowMS, g)
		ab := Compute(dram.Stats{REF: 10}, tm, g.Banks, 1e6, p)
		pb := Compute(dram.Stats{REFpb: 10 * int64(g.Banks)}, tm, g.Banks, 1e6, p)
		if math.Abs(ab.Refresh-pb.Refresh)/ab.Refresh > 1e-9 {
			t.Errorf("%s: %d REFpb must equal 1 REFab in energy: %.3f vs %.3f", name, g.Banks, pb.Refresh/10, ab.Refresh/10)
		}
	}
}

// TestEarlyTerminationSavesActivationEnergy: an ACT-t with the
// early-terminated restore window must consume less activation energy than
// one held to the full window, and a single ACT with the default window must
// sit between a short MRA window and a long one.
func TestEarlyTerminationSavesActivationEnergy(t *testing.T) {
	tm := dram.LPDDR4(dram.Density8Gb, 64, dram.Std(8))
	crow := tm.CROW()
	p := DefaultParams()
	early := Compute(dram.Stats{ACTTwo: 100, ActRasMRA: 100 * int64(crow.TwoFull.RAS)}, tm, 8, 1e6, p)
	full := Compute(dram.Stats{ACTTwo: 100, ActRasMRA: 100 * int64(crow.TwoRestore.RAS)}, tm, 8, 1e6, p)
	if early.ActPre >= full.ActPre {
		t.Errorf("early termination must save activation energy: %.2f vs %.2f", early.ActPre, full.ActPre)
	}
	// The MRA factor still applies: at the SAME restore window, ACT-t
	// must cost 5.8% more than a plain ACT.
	plain := Compute(dram.Stats{ACT: 100, ActRasSingle: 100 * int64(tm.RAS)}, tm, 8, 1e6, p)
	mra := Compute(dram.Stats{ACTTwo: 100, ActRasMRA: 100 * int64(tm.RAS)}, tm, 8, 1e6, p)
	ratio := mra.ActPre / plain.ActPre
	if ratio < 1.04 || ratio > 1.07 {
		t.Errorf("MRA overhead at equal windows = %.3f, want ~1.058", ratio)
	}
}
