package hammer

import (
	"reflect"
	"runtime"
	"testing"

	"crowdram/internal/dram"
)

// testGeo is a deliberately tiny geometry so tests can reason about every
// row: 1 rank, 2 banks, 64 rows per bank, 16-row subarrays with 2 copy rows.
func testGeo() dram.Geometry {
	return dram.Geometry{
		Ranks: 1, Banks: 2,
		RowsPerBank: 64, RowsPerSubarray: 16, CopyRows: 2,
		RowBytes: 8 * 1024, LineBytes: 64,
	}
}

// flatCfg disables jitter and pattern dependence, so every row's threshold
// is exactly HCFirst activations.
func flatCfg(hcFirst int) Config {
	return Config{Seed: 1, HCFirst: hcFirst, JitterPct: 0, PatternPct: 100}
}

func act(m *Model, ch int, a dram.Addr) {
	m.Observer(ch).OnCommand(dram.CmdEvent{Cmd: dram.CmdACT, Addr: a, CopyRow: -1})
}

func TestFlipAtExactThreshold(t *testing.T) {
	m := New(flatCfg(5), 1, testGeo(), dram.Timing{RowsPerRef: 64})
	agg := dram.Addr{Row: 10}
	for i := 0; i < 4; i++ {
		act(m, 0, agg)
	}
	if f := m.Findings(); f.Flips != 0 {
		t.Fatalf("flips before threshold: %+v", f)
	}
	act(m, 0, agg) // 5th activation crosses HC_first = 5 on both neighbours
	f := m.Findings()
	if f.Flips != 2 || len(f.Rows) != 2 {
		t.Fatalf("want 2 flips on rows 9 and 11, got %+v", f)
	}
	if f.Rows[0].Row != 9 || f.Rows[1].Row != 11 {
		t.Fatalf("wrong victim rows: %+v", f.Rows)
	}
	// The per-window flip latch records each victim once, however much
	// further dose arrives.
	for i := 0; i < 100; i++ {
		act(m, 0, agg)
	}
	if f := m.Findings(); f.Flips != 2 {
		t.Fatalf("latched flip recounted: %+v", f)
	}
}

func TestRefreshResetsDose(t *testing.T) {
	m := New(flatCfg(5), 1, testGeo(), dram.Timing{RowsPerRef: 64})
	agg := dram.Addr{Row: 10}
	for i := 0; i < 4; i++ {
		act(m, 0, agg)
	}
	// An all-bank REF restores every row's charge (RowsPerRef covers the
	// whole bank here): the accumulated dose and flip latch reset.
	m.Observer(0).OnCommand(dram.CmdEvent{Cmd: dram.CmdREF, Addr: dram.Addr{}, CopyRow: -1})
	for i := 0; i < 4; i++ {
		act(m, 0, agg)
	}
	if f := m.Findings(); f.Flips != 0 {
		t.Fatalf("dose survived refresh: %+v", f)
	}
	act(m, 0, agg)
	if f := m.Findings(); f.Flips != 2 {
		t.Fatalf("want flips after re-crossing post-refresh, got %+v", f)
	}
}

func TestPartialRefreshSweep(t *testing.T) {
	// RowsPerRef 16: the first REF refreshes rows [0,16) only, leaving the
	// dose on rows 20±1 in place.
	m := New(flatCfg(5), 1, testGeo(), dram.Timing{RowsPerRef: 16})
	agg := dram.Addr{Row: 20}
	for i := 0; i < 4; i++ {
		act(m, 0, agg)
	}
	m.Observer(0).OnCommand(dram.CmdEvent{Cmd: dram.CmdREF, Addr: dram.Addr{}, CopyRow: -1})
	act(m, 0, agg)
	if f := m.Findings(); f.Flips != 2 {
		t.Fatalf("out-of-window refresh cleared dose: %+v", f)
	}
}

func TestBlastRadius(t *testing.T) {
	m := New(Config{Seed: 1, HCFirst: 5, PatternPct: 100, BlastPct: 50}, 1, testGeo(), dram.Timing{RowsPerRef: 64})
	agg := dram.Addr{Row: 10}
	for i := 0; i < 9; i++ {
		act(m, 0, agg)
	}
	// ±1 rows flipped at 5 activations; ±2 rows have 9*50 = 450 < 500.
	if f := m.Findings(); f.Flips != 2 {
		t.Fatalf("±2 rows flipped early: %+v", f)
	}
	act(m, 0, agg) // 10*50 = 500 crosses on rows 8 and 12
	f := m.Findings()
	if f.Flips != 4 || len(f.Rows) != 4 {
		t.Fatalf("want 4 victim rows (8,9,11,12), got %+v", f)
	}
	want := []int{8, 9, 11, 12}
	for i, fr := range f.Rows {
		if fr.Row != want[i] {
			t.Fatalf("victim rows %v, want %v", f.Rows, want)
		}
	}
}

func TestShieldedByCopyRowRemap(t *testing.T) {
	g := testGeo()
	m := New(flatCfg(10), 1, g, dram.Timing{RowsPerRef: 64})
	// An ACT-c remap moves row 10's data into copy-row way 1 of its
	// subarray; the physical row still disturbs, but the data survives.
	m.Observer(0).OnCommand(dram.CmdEvent{Cmd: dram.CmdACTc, Addr: dram.Addr{Row: 10}, CopyRow: 1})
	for i := 0; i < 5; i++ {
		act(m, 0, dram.Addr{Row: 9})
		act(m, 0, dram.Addr{Row: 11})
	}
	f := m.Findings()
	if f.Shielded != 1 || f.Flips != 0 || len(f.Rows) != 0 {
		t.Fatalf("want 1 shielded crossing and no exposed flips, got %+v", f)
	}
}

func TestPerChannelAndBankIsolation(t *testing.T) {
	m := New(flatCfg(5), 2, testGeo(), dram.Timing{RowsPerRef: 64})
	for i := 0; i < 5; i++ {
		act(m, 0, dram.Addr{Row: 10})
		act(m, 1, dram.Addr{Channel: 1, Bank: 1, Row: 30})
	}
	f := m.Findings()
	if f.Flips != 4 {
		t.Fatalf("want 2 flips per channel, got %+v", f)
	}
	want := []FlipRow{
		{Channel: 0, Bank: 0, Row: 9, Flips: 1},
		{Channel: 0, Bank: 0, Row: 11, Flips: 1},
		{Channel: 1, Bank: 1, Row: 29, Flips: 1},
		{Channel: 1, Bank: 1, Row: 31, Flips: 1},
	}
	if !reflect.DeepEqual(f.Rows, want) {
		t.Fatalf("rows %+v, want %+v", f.Rows, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func(seed int64) Findings {
		m := New(Config{Seed: seed, HCFirst: 8, JitterPct: 25, PatternPct: 75, BlastPct: 30},
			2, testGeo(), dram.Timing{RowsPerRef: 16})
		for i := 0; i < 12; i++ {
			for ch := 0; ch < 2; ch++ {
				act(m, ch, dram.Addr{Channel: ch, Row: 10})
				act(m, ch, dram.Addr{Channel: ch, Row: 12})
				act(m, ch, dram.Addr{Channel: ch, Bank: 1, Row: 40})
			}
		}
		return m.Findings()
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Flips == 0 {
		t.Fatalf("test sequence produced no flips: %+v", a)
	}
}

func TestThresholdBandAndPatternSplit(t *testing.T) {
	m := New(Config{Seed: 3, HCFirst: 512, JitterPct: 25, PatternPct: 75},
		1, testGeo(), dram.Timing{RowsPerRef: 64})
	c := m.chans[0]
	b := c.bank(0, 0)
	lo, hi := int32(512*75/100*75*100/100), int32(512*125/100*100) // in dose units
	worst, best := 0, 0
	for row := 0; row < testGeo().RowsPerBank; row++ {
		thr := c.threshold(b, row)
		if thr < lo || thr > hi {
			t.Fatalf("row %d threshold %d outside [%d, %d]", row, thr, lo, hi)
		}
		// The pattern split scales thresholds below HCFirst*(100-J)% of
		// the best-case floor; classify by midpoint for the tally.
		if thr < 512*75 {
			worst++
		} else {
			best++
		}
	}
	if worst == 0 || best == 0 {
		t.Fatalf("pattern split degenerate: worst=%d best=%d", worst, best)
	}
}

func TestZeroHCFirstFloorsAtOneActivation(t *testing.T) {
	// HCFirst below one activation clamps to a single dose unit, not zero
	// (a zero threshold would read as "undrawn" and redraw forever).
	m := New(flatCfg(0), 1, testGeo(), dram.Timing{RowsPerRef: 64})
	act(m, 0, dram.Addr{Row: 10})
	if f := m.Findings(); f.Flips != 2 {
		t.Fatalf("want immediate flips with floor threshold, got %+v", f)
	}
}

// TestHammerStateFollowsTheAttack: the model keeps per-row state only for
// the subarrays an attack doses. A double-sided hammer on one bank of the
// default system allocated 590 KB per bank when every row of a touched bank
// had its dose, threshold and flip latch.
func TestHammerStateFollowsTheAttack(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	cfg := Config{Seed: 1, HCFirst: 1000, JitterPct: 10, BlastPct: 20, PatternPct: 80}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(cfg, 4, g, tm)
	for i := 0; i < 5000; i++ {
		act(m, 0, dram.Addr{Bank: 2, Row: 1000 + 2*(i%2)})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a double-sided hammer on one bank allocates %d bytes of model state, want under 64 KiB", got)
	}
	if f := m.Findings(); f.Flips == 0 {
		t.Errorf("the hammer must flip its victim: %+v", f)
	}
}
