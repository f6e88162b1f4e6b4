package core

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"crowdram/internal/dram"
)

func TestEntryBits(t *testing.T) {
	// 512 regular rows -> 9-bit RegularRowID, +1 special, +1 allocated.
	if got := EntryBits(512, 1); got != 11 {
		t.Errorf("EntryBits(512,1) = %d, want 11", got)
	}
	if got := EntryBits(1024, 2); got != 13 {
		t.Errorf("EntryBits(1024,2) = %d, want 13", got)
	}
}

func TestStoragePaperValue(t *testing.T) {
	// Section 6.1: single channel, 512 regular rows/subarray, 1024
	// subarrays, 8 copy rows/subarray -> 11.3 KB.
	g := dram.Std(8)
	if got := StorageBits(g, 1); got != 11*8*1024 {
		t.Errorf("StorageBits = %d, want %d", got, 11*8*1024)
	}
	if got := StorageKB(g, 1); math.Abs(got-11.264) > 0.01 {
		t.Errorf("StorageKB = %.3f, want 11.264 (paper: 11.3 KiB)", got)
	}
}

func TestAccessTimePaperValue(t *testing.T) {
	got := AccessTimeNs(dram.Std(8))
	if math.Abs(got-0.14) > 0.02 {
		t.Errorf("AccessTimeNs = %.3f, want ≈ 0.14 (paper's CACTI result)", got)
	}
}

func TestTableSetIndependence(t *testing.T) {
	g := dram.Std(2)
	tb := NewTable(2, g)
	a := dram.Addr{Channel: 0, Bank: 0, Row: 0}
	b := dram.Addr{Channel: 1, Bank: 0, Row: 0}
	c := dram.Addr{Channel: 0, Bank: 1, Row: 0}
	d := dram.Addr{Channel: 0, Bank: 0, Row: g.RowsPerSubarray} // next subarray
	tb.WriteSet(a)[0] = Entry{Allocated: true, RegularRow: 0, Kind: EntryCache}
	for _, other := range []dram.Addr{b, c, d} {
		if tb.Set(other)[0].Allocated {
			t.Errorf("sets must be independent; %+v aliases %+v", other, a)
		}
	}
	if tb.Lookup(a) != 0 {
		t.Error("Lookup must find the allocated entry")
	}
	if tb.Lookup(b) != -1 || tb.Lookup(d) != -1 {
		t.Error("Lookup must miss in other sets")
	}
}

func TestLookupMatchesRowWithinSubarray(t *testing.T) {
	g := dram.Std(4)
	tb := NewTable(1, g)
	// Row 1000 lives in subarray 1, index 488.
	a := dram.Addr{Row: 1000}
	tb.WriteSet(a)[2] = Entry{Allocated: true, RegularRow: 488, Kind: EntryCache}
	if got := tb.Lookup(a); got != 2 {
		t.Errorf("Lookup = %d, want 2", got)
	}
	// Same in-subarray index in a different subarray must miss.
	if got := tb.Lookup(dram.Addr{Row: 488}); got != -1 {
		t.Errorf("Lookup in subarray 0 = %d, want -1", got)
	}
}

func TestFreeAndLRUWay(t *testing.T) {
	set := make([]Entry, 4)
	if FreeWay(set) != 0 {
		t.Error("first free way is 0")
	}
	for w := range set {
		set[w] = Entry{Allocated: true, Kind: EntryCache, lastUse: int64(10 - w)}
	}
	if FreeWay(set) != -1 {
		t.Error("no free way in a full set")
	}
	if got := LRUWay(set); got != 3 {
		t.Errorf("LRUWay = %d, want 3 (lastUse 7)", got)
	}
	// Pinned ways (ref/hammer) are not eviction candidates.
	set[3].Kind = EntryRef
	if got := LRUWay(set); got != 2 {
		t.Errorf("LRUWay = %d, want 2 after pinning way 3", got)
	}
	for w := range set {
		set[w].Kind = EntryRef
	}
	if LRUWay(set) != -1 {
		t.Error("fully pinned set has no LRU victim")
	}
}

// TestEntryBitsMonotonic: more rows or special bits never shrink the entry.
func TestEntryBitsMonotonic(t *testing.T) {
	f := func(rowsRaw uint8, special uint8) bool {
		rows := int(rowsRaw)%1024 + 2
		s := int(special % 4)
		return EntryBits(rows+1, s) >= EntryBits(rows, s) &&
			EntryBits(rows, s+1) == EntryBits(rows, s)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// allocatedBy returns the bytes f allocates; no test of this package runs in
// parallel with another.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTableStartsEmpty: a CROW-256 table of the default system was 42 MB
// when its 4 096 sets were allocated up front; now a set is allocated by its
// first write.
func TestTableStartsEmpty(t *testing.T) {
	var tb *Table
	if got := allocatedBy(func() { tb = NewTable(4, dram.Std(256)) }); got >= 64<<10 {
		t.Errorf("an unwritten CROW-256 table allocates %d bytes, want under 64 KiB", got)
	}
	if len(tb.sets) != 0 {
		t.Errorf("%d sets allocated before any write", len(tb.sets))
	}
}

// TestUntouchedSetReadsAllocateNothing: every read of a set no entry was
// written to sees free ways, allocates nothing and leaves it unallocated.
func TestUntouchedSetReadsAllocateNothing(t *testing.T) {
	c := newTestCROW(8)
	c.Cache = true
	g := c.Table.Geo
	var a dram.Addr
	n := 0
	allocs := testing.AllocsPerRun(10, func() {
		n++ // a set no earlier run read
		a = dram.Addr{Bank: n % g.Banks, Row: n*g.RowsPerSubarray + 5}
		if c.Table.Lookup(a) != -1 || FreeWay(c.Table.Set(a)) != 0 {
			t.Fatal("an untouched set must read as free ways")
		}
		if d := c.PlanActivate(a, 0); d.Kind != dram.ActCopy || d.CopyRow != 0 {
			t.Fatalf("a CROW-cache miss in an untouched set plans %+v, want ACT-c into way 0", d)
		}
		c.OnPrecharge(a, a.Row, true, 0)
		c.OnRefreshRows(0, 0, 0, g.Banks, a.Row-8, 16, 0)
	})
	if allocs != 0 {
		t.Errorf("reading an untouched set allocates %.0f times, want 0", allocs)
	}
	if len(c.Table.sets) != 0 {
		t.Errorf("reads allocated %d sets", len(c.Table.sets))
	}
	c.OnActivate(a, c.PlanActivate(a, 0), 0)
	if len(c.Table.sets) != 1 || c.Table.Lookup(a) != 0 {
		t.Errorf("the first write must allocate its set: %d sets, lookup %d", len(c.Table.sets), c.Table.Lookup(a))
	}
	for _, e := range c.Table.empty {
		if e != (Entry{}) {
			t.Fatalf("the shared unwritten set was written: %+v", e)
		}
	}
}
