package core

import (
	"testing"

	"crowdram/internal/dram"
)

// BenchmarkHammerCounting exercises the crow-hammer activation-counting hot
// path: every activation under HammerThreshold bumps a per-row counter keyed
// by (rank, bank, row), and each refresh sweep start resets the channel's
// counters. The access pattern mirrors the attack workloads: a few aggressor
// rows hammered hard, a scatter of background rows touched once — the mixed
// hit/miss profile where a map's hashing and a flat array diverge most.
func BenchmarkHammerCounting(b *testing.B) {
	g := dram.Std(8)
	t := dram.LPDDR4(8, 64, g)
	c := NewCROW(1, g, t)
	c.HammerThreshold = 1 << 30 // count only: isolate bookkeeping from remaps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 7 aggressor hits on two rows, 1 cold background row.
		base := (i * 2) % (g.RowsPerBank - 4)
		for k := 0; k < 7; k++ {
			a := dram.Addr{Bank: k % g.Banks, Row: 8 + k%2*2}
			c.OnActivate(a, c.PlanActivate(a, int64(i)), int64(i))
		}
		a := dram.Addr{Bank: i % g.Banks, Row: base}
		c.OnActivate(a, c.PlanActivate(a, int64(i)), int64(i))
		if i%4096 == 0 {
			// Refresh-sweep wrap: reset the window's counters.
			c.OnRefreshRows(0, 0, 0, 0, t.RowsPerRef, 0)
		}
	}
}
