package chargecache

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

func newCC() *Mechanism {
	g := dram.Std(0)
	t := dram.LPDDR4(dram.Density8Gb, 64, g)
	return New(1, t, 4)
}

func TestColdActivationUsesBaseTimings(t *testing.T) {
	m := newCC()
	d := m.PlanActivate(dram.Addr{Row: 5}, 0)
	if d.Timing != m.base {
		t.Errorf("cold row must use base timings: %+v", d.Timing)
	}
	m.OnActivate(dram.Addr{Row: 5}, d, 0)
	if m.Misses != 1 {
		t.Error("cold activation is a miss")
	}
}

func TestRecentlyPrechargedRowIsFast(t *testing.T) {
	m := newCC()
	a := dram.Addr{Row: 5}
	m.OnPrecharge(a, 5, true, 100)
	d := m.PlanActivate(a, 200)
	if d.Timing != m.charged {
		t.Fatalf("recently-precharged row must be highly charged: %+v", d.Timing)
	}
	if d.Timing.RCD >= m.T.RCD || d.Timing.RAS >= m.T.RAS {
		t.Error("charged timings must be reduced")
	}
	m.OnActivate(a, d, 200)
	if m.Hits != 1 {
		t.Error("hit must be counted")
	}
}

func TestChargeExpires(t *testing.T) {
	m := newCC()
	a := dram.Addr{Row: 5}
	m.OnPrecharge(a, 5, true, 100)
	late := 100 + m.window + 1
	if d := m.PlanActivate(a, late); d.Timing != m.base {
		t.Error("the benefit must expire after the window (cells leak)")
	}
}

func TestTableCapacityFIFO(t *testing.T) {
	m := newCC() // capacity 4
	for row := 0; row < 6; row++ {
		m.OnPrecharge(dram.Addr{Row: row}, row, true, int64(100+row))
	}
	if d := m.PlanActivate(dram.Addr{Row: 0}, 110); d.Timing != m.base {
		t.Error("row 0 must have been pushed out of the 4-entry table")
	}
	if d := m.PlanActivate(dram.Addr{Row: 5}, 110); d.Timing != m.charged {
		t.Error("row 5 must still be tracked")
	}
}

func TestReprechargeRefreshesEntry(t *testing.T) {
	m := newCC()
	a := dram.Addr{Row: 5}
	m.OnPrecharge(a, 5, true, 100)
	m.OnPrecharge(a, 5, true, int64(100)+m.window/2)
	// Just past the first window but within the second.
	at := int64(100) + m.window + 10
	if d := m.PlanActivate(a, at); d.Timing != m.charged {
		t.Error("a re-precharge must renew the charge window")
	}
}

func TestDistinctBanksDoNotAlias(t *testing.T) {
	m := newCC()
	m.OnPrecharge(dram.Addr{Bank: 0, Row: 5}, 5, true, 100)
	if d := m.PlanActivate(dram.Addr{Bank: 1, Row: 5}, 150); d.Timing != m.base {
		t.Error("same row index in another bank must miss")
	}
}

func TestMechanismInterface(t *testing.T) {
	var _ core.Mechanism = newCC()
	m := newCC()
	if m.RefreshMultiplier() != 1 {
		t.Error("ChargeCache does not change refresh")
	}
}
