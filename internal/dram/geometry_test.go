package dram

import (
	"testing"
	"testing/quick"
)

func TestStdGeometry(t *testing.T) {
	g := Std(8)
	if got := g.SubarraysPerBank(); got != 128 {
		t.Errorf("SubarraysPerBank = %d, want 128", got)
	}
	if got := g.ColumnsPerRow(); got != 128 {
		t.Errorf("ColumnsPerRow = %d, want 128", got)
	}
	if got := g.ChannelBytes(); got != 4<<30 {
		t.Errorf("ChannelBytes = %d, want 4 GiB", got)
	}
}

func TestSubarrayIndexing(t *testing.T) {
	g := Std(8)
	cases := []struct{ row, sub, inSub int }{
		{0, 0, 0},
		{511, 0, 511},
		{512, 1, 0},
		{65535, 127, 511},
	}
	for _, c := range cases {
		if got := g.Subarray(c.row); got != c.sub {
			t.Errorf("Subarray(%d) = %d, want %d", c.row, got, c.sub)
		}
		if got := g.RowInSubarray(c.row); got != c.inSub {
			t.Errorf("RowInSubarray(%d) = %d, want %d", c.row, got, c.inSub)
		}
	}
}

func mustMapper(t *testing.T, layout string, channels int, g Geometry) *Mapper {
	t.Helper()
	m, err := NewMapperFor(layout, channels, g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapperBits(t *testing.T) {
	m := mustMapper(t, DefaultMapping, 4, Std(8))
	// 6 offset + 2 channel + 7 column + 3 bank + 0 rank + 16 row = 34 bits.
	if got := m.Bits(); got != 34 {
		t.Errorf("Bits = %d, want 34", got)
	}
	if got := m.Capacity(); got != 16<<30 {
		t.Errorf("Capacity = %d, want 16 GiB", got)
	}
}

func TestMapperDecodeFields(t *testing.T) {
	m := mustMapper(t, DefaultMapping, 4, Std(8))
	// Consecutive cache lines must interleave across channels first.
	a0 := m.Decode(0)
	a1 := m.Decode(64)
	if a0.Channel != 0 || a1.Channel != 1 {
		t.Errorf("line interleave across channels broken: %+v %+v", a0, a1)
	}
	if a0.Row != a1.Row || a0.Bank != a1.Bank || a0.Col != a1.Col {
		t.Errorf("adjacent lines should differ only in channel: %+v %+v", a0, a1)
	}
	// Lines 4 apart (one per channel consumed) advance the column.
	a4 := m.Decode(4 * 64)
	if a4.Col != a0.Col+1 || a4.Channel != 0 {
		t.Errorf("column increment broken: %+v", a4)
	}
}

// TestMapperRoundTrip checks Encode∘Decode is the identity on the canonical
// address bits, as a property over random addresses.
func TestMapperRoundTrip(t *testing.T) {
	m := mustMapper(t, DefaultMapping, 4, Std(8))
	f := func(phys uint64) bool {
		canon := phys & ((1 << m.Bits()) - 1) &^ uint64(m.Geo.LineBytes-1)
		a := m.Decode(phys)
		return m.Encode(a) == canon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMapperDecodeInRange checks all decoded coordinates are within the
// geometry, as a property.
func TestMapperDecodeInRange(t *testing.T) {
	m := mustMapper(t, DefaultMapping, 4, Std(8))
	g := m.Geo
	f := func(phys uint64) bool {
		a := m.Decode(phys)
		return a.Channel >= 0 && a.Channel < 4 &&
			a.Rank >= 0 && a.Rank < g.Ranks &&
			a.Bank >= 0 && a.Bank < g.Banks &&
			a.Row >= 0 && a.Row < g.RowsPerBank &&
			a.Col >= 0 && a.Col < g.ColumnsPerRow()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLog2PanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("log2(3) should panic")
		}
	}()
	log2(3)
}
