package dram

import "testing"

// benchChannel builds a standard MASA channel with the given number of rows
// open, spread round-robin over the banks.
func benchChannel(openRows int) (*Channel, Timing) {
	g := Std(8)
	tm := LPDDR4(Density8Gb, 64, g)
	c := NewChannel(g, tm)
	c.MASA = true
	base := tm.Base()
	now := int64(0)
	for i := 0; i < openRows; i++ {
		a := Addr{Bank: i % g.Banks, Row: i / g.Banks * g.RowsPerSubarray}
		now = c.ReadyACT(a)
		c.ACT(a, now, ActSingle, base, -1)
	}
	return c, tm
}

// BenchmarkChannelCommandLoop measures the raw command bookkeeping cost:
// ACT, RD, PRE, timing-legal by construction.
func BenchmarkChannelCommandLoop(b *testing.B) {
	g := Std(8)
	tm := LPDDR4(Density8Gb, 64, g)
	c := NewChannel(g, tm)
	base := tm.Base()
	now := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr{Bank: i % g.Banks, Row: i % 64, Col: i % g.ColumnsPerRow()}
		c.Tick(now)
		c.ACT(a, now, ActSingle, base, -1)
		col := now + int64(base.RCD)
		c.RD(a, col)
		pre := now + int64(base.RASFull)
		c.PRE(a, pre)
		now = pre + int64(tm.RP) + 1
	}
}

// BenchmarkOpenList measures what keeping the open list sorted costs a
// command: an ACT inserting into, and a PRE deleting from, the middle of a
// list of 256 open subarrays under MASA. The controller reads the list in
// place, so this is the whole price of it.
func BenchmarkOpenList(b *testing.B) {
	c, tm := benchChannel(256)
	a := Addr{Bank: c.Geo.Banks / 2, Row: 40 * c.Geo.RowsPerSubarray}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ACT(a, c.ReadyACT(a), ActSingle, tm.Base(), -1)
		c.PRE(a, c.ReadyPRE(a))
	}
	if len(c.open) != 256 {
		b.Fatalf("%d open rows, want 256", len(c.open))
	}
}

// BenchmarkOpenRowInBank measures the per-request open-row lookup on the
// non-MASA scheduling path, with the bank's row found among 256 open ones.
func BenchmarkOpenRowInBank(b *testing.B) {
	c, _ := benchChannel(256)
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.OpenRowInBank(0, i%c.Geo.Banks)
	}
	if sink < 0 {
		b.Fatal("expected an open row")
	}
}
