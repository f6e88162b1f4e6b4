package core

import (
	"testing"

	"crowdram/internal/dram"
	"crowdram/internal/retention"
)

func TestSharedTableIndexing(t *testing.T) {
	g := dram.Std(8)
	tb := NewSharedTable(1, g, 4)
	// Subarrays 0..3 share set 0; subarray 4 starts set 1.
	a0 := dram.Addr{Row: 0}                     // subarray 0
	a3 := dram.Addr{Row: 3 * g.RowsPerSubarray} // subarray 3
	a4 := dram.Addr{Row: 4 * g.RowsPerSubarray} // subarray 4
	if &tb.WriteSet(a0)[0] != &tb.WriteSet(a3)[0] {
		t.Error("subarrays 0 and 3 must share a set at group 4")
	}
	if &tb.WriteSet(a0)[0] == &tb.WriteSet(a4)[0] {
		t.Error("subarray 4 must use a different set")
	}
	if tb.SubTag(a0) != 0 || tb.SubTag(a3) != 3 || tb.SubTag(a4) != 0 {
		t.Errorf("SubTags = %d/%d/%d, want 0/3/0", tb.SubTag(a0), tb.SubTag(a3), tb.SubTag(a4))
	}
}

func TestSharedLookupDisambiguatesSubarrays(t *testing.T) {
	g := dram.Std(8)
	tb := NewSharedTable(1, g, 4)
	// Row 5 of subarray 1 cached.
	a := dram.Addr{Row: 1*g.RowsPerSubarray + 5}
	tb.WriteSet(a)[0] = Entry{Allocated: true, RegularRow: 5, SubTag: 1, Kind: EntryCache}
	if tb.Lookup(a) != 0 {
		t.Error("lookup must hit the cached row")
	}
	// Row 5 of subarray 2 (same set, same in-subarray index) must miss.
	b := dram.Addr{Row: 2*g.RowsPerSubarray + 5}
	if tb.Lookup(b) != -1 {
		t.Error("same row index in a different subarray of the group must miss")
	}
	if got := tb.AbsoluteRow(b, tb.Set(a)[0]); got != a.Row {
		t.Errorf("AbsoluteRow = %d, want %d", got, a.Row)
	}
}

func TestSharedStorageBits(t *testing.T) {
	g := dram.Std(8)
	full := SharedStorageBits(g, 1, 1)
	if full != StorageBits(g, 1) {
		t.Error("share=1 must equal the unshared storage")
	}
	shared4 := SharedStorageBits(g, 1, 4)
	// 4x fewer sets, +2 tag bits per entry: 13/11 / 4 of the original.
	want := full / 4 * 13 / 11
	if shared4 != want {
		t.Errorf("shared storage = %d bits, want %d", shared4, want)
	}
	if float64(shared4)/float64(full) > 0.30 {
		t.Errorf("sharing across 4 must cut storage to ~30%% (paper: 'approximately a factor of 4')")
	}
}

func TestSharedCROWCacheEndToEnd(t *testing.T) {
	g := dram.Std(2)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := NewCROWShared(1, g, tm, 4)
	c.Cache = true
	// Two rows in different subarrays of the same group now contend for
	// the same 2 ways.
	a := dram.Addr{Row: 7}
	b := dram.Addr{Row: g.RowsPerSubarray + 9}
	x := dram.Addr{Row: 2*g.RowsPerSubarray + 11}
	for _, addr := range []dram.Addr{a, b} {
		d := c.PlanActivate(addr, 0)
		if d.Kind != dram.ActCopy {
			t.Fatalf("want ACT-c for %v, got %v", addr, d.Kind)
		}
		c.OnActivate(addr, d, 0)
		c.OnPrecharge(addr, addr.Row, true, 10)
	}
	// Both hit.
	if d := c.PlanActivate(a, 20); d.Kind != dram.ActTwo {
		t.Errorf("a must hit, got %v", d.Kind)
	}
	// Third row evicts the LRU (a).
	d := c.PlanActivate(x, 30)
	if d.Kind != dram.ActCopy {
		t.Fatalf("x must allocate, got %v", d.Kind)
	}
	c.OnActivate(x, d, 30)
	if c.Table.Lookup(a) != -1 {
		t.Error("a (LRU across the shared group) must be evicted")
	}
	if c.Table.Lookup(b) == -1 || c.Table.Lookup(x) == -1 {
		t.Error("b and x must be resident")
	}
}

func TestVictimWayPrefersFullyRestored(t *testing.T) {
	set := []Entry{
		{Allocated: true, Kind: EntryCache, FullyRestored: false, lastUse: 1},
		{Allocated: true, Kind: EntryCache, FullyRestored: true, lastUse: 5},
		{Allocated: true, Kind: EntryCache, FullyRestored: true, lastUse: 3},
	}
	if got := VictimWay(set); got != 2 {
		t.Errorf("VictimWay = %d, want 2 (LRU among fully-restored)", got)
	}
	// Only partial entries left.
	set[1].FullyRestored = false
	set[2].FullyRestored = false
	if got := VictimWay(set); got != 0 {
		t.Errorf("VictimWay = %d, want 0 (LRU partial)", got)
	}
	// Pinned entries are never victims.
	for i := range set {
		set[i].Kind = EntryRef
	}
	if VictimWay(set) != -1 {
		t.Error("fully pinned set has no victim")
	}
}

func TestFullRestoreAblation(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := NewCROW(1, g, tm)
	c.Cache = true
	c.FullRestore = true
	a := dram.Addr{Row: 3}
	d := c.PlanActivate(a, 0)
	if d.Timing != c.Crow.CopyFull {
		t.Error("FullRestore copies must use the CopyFull plan")
	}
	c.OnActivate(a, d, 0)
	c.OnPrecharge(a, a.Row, true, 100)
	d2 := c.PlanActivate(a, 200)
	if d2.Timing.RAS != c.Crow.TwoRestore.RAS || d2.Timing.RCD != c.Crow.TwoFull.RCD {
		t.Errorf("FullRestore hit plan = %+v", d2.Timing)
	}
	if d2.Timing.RAS != d2.Timing.RASFull {
		t.Error("FullRestore plans never terminate early")
	}
}

func TestRAIDRMechanism(t *testing.T) {
	g := dram.Std(0)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	prof := retention.FixedProfile(retention.Geometry{
		Channels: 1, Ranks: g.Ranks, Banks: g.Banks,
		Subarrays: g.SubarraysPerBank(), RowsPerSubarray: g.RowsPerSubarray,
	}, 1, 3)
	r := NewRAIDR(1, g, tm, prof)
	if r.RefreshMultiplier() != 2 {
		t.Error("RAIDR doubles the bulk refresh window")
	}
	if d := r.PlanActivate(dram.Addr{Row: 1}, 0); d.Kind != dram.ActSingle {
		t.Error("RAIDR does not remap rows")
	}
	// Simulate the bulk refresh stream covering a full window: every
	// weak row must receive exactly one interleaved row refresh.
	for rows := 0; rows < g.RowsPerBank; rows += tm.RowsPerRef {
		r.OnRefreshRows(0, 0, 0, g.Banks, rows, tm.RowsPerRef, 0)
	}
	wantOps := int64(g.Banks * g.SubarraysPerBank()) // 1 weak row each
	if got := r.Stats[TableRowRefresh]; got != wantOps {
		t.Fatalf("row refreshes = %d, want %d after a full sweep", got, wantOps)
	}
	op, ok := r.NextCopy(0, 0)
	if !ok || op.Kind != dram.ActSingle {
		t.Fatalf("pending op = %+v, ok=%v", op, ok)
	}
	if op.Timing != tm.Base() {
		t.Error("weak-row refreshes run at baseline timings")
	}
}

func TestRAIDRStorage(t *testing.T) {
	if got := RAIDRStorageKB(1000); got != 1.25 {
		t.Errorf("RAIDRStorageKB(1000) = %.3f, want 1.25 (paper [64])", got)
	}
}
