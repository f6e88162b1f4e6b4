package tldram

import (
	"testing"

	"crowdram/internal/circuit"
	"crowdram/internal/core"
	"crowdram/internal/dram"
)

func newTL(near int) *Mechanism {
	g := dram.Std(0)
	t := dram.LPDDR4(dram.Density8Gb, 64, g)
	return New(1, g, t, near)
}

func TestNearSegmentTimings(t *testing.T) {
	m := newTL(8)
	// Paper: TL-DRAM-8 near segment ≈ −73 % tRCD, −80 % tRAS.
	if m.near.RCD > m.T.RCD/3+2 {
		t.Errorf("near tRCD = %d cycles, want ≈ 27%% of %d", m.near.RCD, m.T.RCD)
	}
	if m.near.RAS > m.T.RAS/4+4 {
		t.Errorf("near tRAS = %d cycles, want ≈ 20%% of %d", m.near.RAS, m.T.RAS)
	}
	// Far segment pays the isolation-transistor penalty.
	if m.far.RCD <= m.T.RCD {
		t.Errorf("far tRCD = %d, must exceed baseline %d", m.far.RCD, m.T.RCD)
	}
	// Copying into the near segment extends restoration.
	if m.copy.RAS <= m.far.RAS {
		t.Error("copy tRAS must exceed a plain far activation")
	}
}

func TestMissCopyThenNearHit(t *testing.T) {
	m := newTL(8)
	a := dram.Addr{Row: 42}
	d := m.PlanActivate(a, 0)
	if d.Kind != dram.ActCopy {
		t.Fatalf("first touch must copy into the near segment, got %v", d.Kind)
	}
	m.OnActivate(a, d, 0)
	d2 := m.PlanActivate(a, 10)
	if d2.Kind != dram.ActSingle || d2.Timing != m.near {
		t.Fatalf("cached row must activate as a near row: %+v", d2)
	}
	m.OnActivate(a, d2, 10)
	if m.Stats[core.TableHit] != 1 || m.Stats[core.TableCopy] != 1 {
		t.Errorf("stats: %+v", m.Stats)
	}
}

func TestLRUEvictionNoRestoreNeeded(t *testing.T) {
	m := newTL(1)
	a, b := dram.Addr{Row: 1}, dram.Addr{Row: 2}
	m.OnActivate(a, m.PlanActivate(a, 0), 0)
	d := m.PlanActivate(b, 10)
	if d.RestoreFirst {
		t.Error("TL-DRAM copies fully restore; eviction never needs a restore op")
	}
	if d.Kind != dram.ActCopy {
		t.Fatalf("want copy, got %v", d.Kind)
	}
	m.OnActivate(b, d, 10)
	if m.Table.Lookup(a) != -1 || m.Table.Lookup(b) == -1 {
		t.Error("LRU eviction broken")
	}
	if m.Stats[core.TableEviction] != 1 {
		t.Errorf("Evictions = %d, want 1", m.Stats[core.TableEviction])
	}
}

func TestAreaOverhead(t *testing.T) {
	got := circuit.TLDRAMChipOverhead(newTL(8).NearRows)
	if got < 0.065 || got > 0.073 {
		t.Errorf("TL-DRAM-8 area overhead = %.4f, want ≈ 0.069", got)
	}
}

func TestMechanismInterface(t *testing.T) {
	var _ core.Mechanism = newTL(8)
	m := newTL(8)
	if m.RefreshMultiplier() != 1 {
		t.Error("TL-DRAM does not change refresh")
	}
	if m.Name() != "tl-dram" {
		t.Error("name")
	}
}
