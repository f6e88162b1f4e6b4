package dram

import (
	"testing"
	"testing/quick"
)

func TestLPDDR4Baseline(t *testing.T) {
	tm := LPDDR4(Density8Gb, 64, Std(8))
	if tm.RCD != 29 || tm.RAS != 67 || tm.WR != 29 {
		t.Errorf("tRCD/tRAS/tWR = %d/%d/%d, want 29/67/29 (Table 2)", tm.RCD, tm.RAS, tm.WR)
	}
	if tm.RFC != 448 { // 280 ns at 0.625 ns/cycle
		t.Errorf("tRFC = %d cycles, want 448", tm.RFC)
	}
	// 64 ms window / 8192 REFs = 7.8125 us = 12500 cycles.
	if tm.REFI != 12500 {
		t.Errorf("tREFI = %d cycles, want 12500", tm.REFI)
	}
	if tm.RowsPerRef != 8 {
		t.Errorf("RowsPerRef = %d, want 8", tm.RowsPerRef)
	}
}

func TestRefWindowScaling(t *testing.T) {
	base := LPDDR4(Density8Gb, 64, Std(8))
	ext := LPDDR4(Density8Gb, 128, Std(8))
	if ext.REFI != 2*base.REFI {
		t.Errorf("doubling the window must double tREFI: %d vs %d", ext.REFI, base.REFI)
	}
	if ext.RFC != base.RFC {
		t.Errorf("tRFC must not change with the window")
	}
}

func TestRFCGrowsWithDensity(t *testing.T) {
	prev := 0
	for _, d := range []Density{Density8Gb, Density16Gb, Density32Gb, Density64Gb} {
		tm := LPDDR4(d, 64, Std(8))
		if tm.RFC <= prev {
			t.Errorf("tRFC must grow with density; %v -> %d", d, tm.RFC)
		}
		prev = tm.RFC
	}
}

func TestCROWTimingsTable1(t *testing.T) {
	tm := LPDDR4(Density8Gb, 64, Std(8))
	c := tm.CROW()
	// Table 1: ACT-t on fully-restored rows: tRCD -38%, tRAS -33% (early
	// termination), tWR -13%.
	if c.TwoFull.RCD != 18 {
		t.Errorf("TwoFull.RCD = %d, want 18 (29 * 0.62)", c.TwoFull.RCD)
	}
	if c.TwoFull.RAS != 45 {
		t.Errorf("TwoFull.RAS = %d, want 45 (67 * 0.67)", c.TwoFull.RAS)
	}
	if c.TwoFull.WR != 25 {
		t.Errorf("TwoFull.WR = %d, want 25 (29 * 0.87)", c.TwoFull.WR)
	}
	// ACT-t on partially-restored rows: tRCD -21%, tRAS -25%.
	if c.TwoPartial.RCD != 23 {
		t.Errorf("TwoPartial.RCD = %d, want 23 (29 * 0.79)", c.TwoPartial.RCD)
	}
	if c.TwoPartial.RAS != 50 {
		t.Errorf("TwoPartial.RAS = %d, want 50 (67 * 0.75)", c.TwoPartial.RAS)
	}
	// Restore before eviction fully restores two cells: tRAS -7%, tWR +14%.
	if c.TwoRestore.RAS != 62 {
		t.Errorf("TwoRestore.RAS = %d, want 62 (67 * 0.93)", c.TwoRestore.RAS)
	}
	if c.TwoRestore.WR != 33 {
		t.Errorf("TwoRestore.WR = %d, want 33 (29 * 1.14)", c.TwoRestore.WR)
	}
	// ACT-c: tRCD unchanged; tRAS -7% early / +18% full.
	if c.Copy.RCD != tm.RCD {
		t.Errorf("Copy.RCD = %d, want unchanged %d", c.Copy.RCD, tm.RCD)
	}
	if c.Copy.RAS != 62 || c.CopyFull.RAS != 79 {
		t.Errorf("Copy.RAS/CopyFull.RAS = %d/%d, want 62/79", c.Copy.RAS, c.CopyFull.RAS)
	}
}

func TestActKind(t *testing.T) {
	if ActSingle.CmdCycles() != 1 {
		t.Error("ACT takes one command cycle")
	}
	for _, k := range []ActKind{ActTwo, ActCopy, ActCopyRow} {
		if k.CmdCycles() != 2 {
			t.Errorf("%v must take an extra address cycle", k)
		}
	}
}

// TestScaleNeverBelowOne: derived timings must remain positive for any
// baseline value, as a property.
func TestScaleNeverBelowOne(t *testing.T) {
	f := func(base uint8, centiDelta int8) bool {
		return scale(int(base), float64(centiDelta)/100) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
