package dram

import "testing"

// benchChannel builds a standard channel with a few rows opened across
// banks, the state the controller's scan paths see in steady state.
func benchChannel(openBanks int) (*Channel, Timing) {
	g := Std(8)
	tm := LPDDR4(Density8Gb, 64, g)
	c := NewChannel(g, tm)
	c.MASA = true
	base := tm.Base()
	now := int64(0)
	for b := 0; b < openBanks; b++ {
		c.ACT(Addr{Bank: b % g.Banks, Row: b * 512}, now, ActSingle, base, -1)
		now += int64(tm.RRD)
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

// BenchmarkOpenSubarraysAppend measures the open-row scan with a reused
// buffer, as the controller's refresh and timeout paths call it.
func BenchmarkOpenSubarraysAppend(b *testing.B) {
	c, _ := benchChannel(8)
	var buf []OpenSub
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.OpenSubarraysAppend(buf[:0])
	}
	if len(buf) == 0 {
		b.Fatal("expected open subarrays")
	}
}

// BenchmarkOpenRowInBank measures the per-request open-row lookup on the
// non-MASA scheduling path.
func BenchmarkOpenRowInBank(b *testing.B) {
	c, _ := benchChannel(1)
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.OpenRowInBank(0, 0)
	}
	if sink < 0 {
		b.Fatal("expected an open row")
	}
}
