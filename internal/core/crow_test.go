package core

import (
	"reflect"
	"testing"

	"crowdram/internal/dram"
	"crowdram/internal/retention"
)

func newTestCROW(copyRows int) *CROW {
	g := dram.Std(copyRows)
	t := dram.LPDDR4(dram.Density8Gb, 64, g)
	return NewCROW(1, g, t)
}

func retGeo(g dram.Geometry, channels int) retention.Geometry {
	return retention.Geometry{
		Channels: channels, Ranks: g.Ranks, Banks: g.Banks,
		Subarrays: g.SubarraysPerBank(), RowsPerSubarray: g.RowsPerSubarray,
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := newTestCROW(8)
	c.Cache = true
	a := dram.Addr{Row: 42}

	d := c.PlanActivate(a, 0)
	if d.Kind != dram.ActCopy {
		t.Fatalf("first activation must be ACT-c, got %v", d.Kind)
	}
	if d.Timing != c.Crow.Copy {
		t.Errorf("ACT-c must use the Copy plan")
	}
	c.OnActivate(a, d, 0)
	// Early precharge leaves the pair partially restored.
	c.OnPrecharge(a, a.Row, false, 100)

	d2 := c.PlanActivate(a, 200)
	if d2.Kind != dram.ActTwo {
		t.Fatalf("second activation must be ACT-t, got %v", d2.Kind)
	}
	if d2.Timing != c.Crow.TwoPartial {
		t.Errorf("partially-restored hit must use TwoPartial timings")
	}
	c.OnActivate(a, d2, 200)
	// Precharge past full restoration upgrades the entry.
	c.OnPrecharge(a, a.Row, true, 400)
	d3 := c.PlanActivate(a, 500)
	if d3.Timing != c.Crow.TwoFull {
		t.Errorf("fully-restored hit must use TwoFull timings (-38%% tRCD)")
	}
	if c.Stats[TableHit] != 1 || c.Stats[TableMiss] != 1 || c.Stats[TableCopy] != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLazyEvictionSkipsAllocationOnPartialVictim(t *testing.T) {
	c := newTestCROW(1)
	c.Cache = true
	a := dram.Addr{Row: 1}
	b := dram.Addr{Row: 2} // same subarray
	d := c.PlanActivate(a, 0)
	c.OnActivate(a, d, 0)
	c.OnPrecharge(a, a.Row, false, 50) // partial
	// Default policy: b is simply not cached while the only victim is
	// partially restored.
	d2 := c.PlanActivate(b, 100)
	if d2.RestoreFirst || d2.Kind != dram.ActSingle {
		t.Fatalf("lazy policy must skip allocation, got %+v", d2)
	}
	if c.Table.Lookup(a) != 0 {
		t.Error("a must stay cached")
	}
}

func TestCacheEvictionRequiresRestoreOfPartialVictim(t *testing.T) {
	c := newTestCROW(1) // one way per subarray
	c.Cache = true
	c.EagerRestore = true
	a := dram.Addr{Row: 1}
	b := dram.Addr{Row: 2} // same subarray

	d := c.PlanActivate(a, 0)
	c.OnActivate(a, d, 0)
	c.OnPrecharge(a, a.Row, false, 50) // partial

	// Activating b must first demand a full restore of a's pair.
	d2 := c.PlanActivate(b, 100)
	if !d2.RestoreFirst {
		t.Fatal("evicting a partially-restored pair must demand RestoreFirst")
	}
	if d2.RestoreRow != a.Row || d2.RestoreCopyRow != 0 {
		t.Errorf("restore target = row %d way %d, want row %d way 0", d2.RestoreRow, d2.RestoreCopyRow, a.Row)
	}
	if d2.RestoreTiming != c.Crow.TwoRestore {
		t.Error("restore op must use the TwoRestore plan")
	}
	// The controller performs the restore as an ACT-t.
	restore := ActDecision{Kind: dram.ActTwo, CopyRow: d2.RestoreCopyRow, Timing: d2.RestoreTiming, RestoreFirst: true}
	c.OnActivate(a, restore, 100)
	c.OnPrecharge(a, a.Row, true, 200)
	if c.Stats[TableRestore] != 1 {
		t.Errorf("RestoreOps = %d, want 1", c.Stats[TableRestore])
	}

	// Retry: now the victim is fully restored and evictable.
	d3 := c.PlanActivate(b, 300)
	if d3.RestoreFirst || d3.Kind != dram.ActCopy {
		t.Fatalf("after restore, activation of b must be ACT-c, got %+v", d3)
	}
	c.OnActivate(b, d3, 300)
	if c.Stats[TableEviction] != 1 {
		t.Errorf("Evictions = %d, want 1", c.Stats[TableEviction])
	}
	if c.Table.Lookup(a) != -1 {
		t.Error("a must be evicted")
	}
	if c.Table.Lookup(b) != 0 {
		t.Error("b must occupy way 0")
	}
}

func TestFullyRestoredVictimEvictsWithoutRestore(t *testing.T) {
	c := newTestCROW(1)
	c.Cache = true
	a := dram.Addr{Row: 1}
	b := dram.Addr{Row: 2}
	d := c.PlanActivate(a, 0)
	c.OnActivate(a, d, 0)
	c.OnPrecharge(a, a.Row, true, 100) // fully restored
	d2 := c.PlanActivate(b, 200)
	if d2.RestoreFirst {
		t.Error("fully-restored victims need no restore op")
	}
	if d2.Kind != dram.ActCopy {
		t.Errorf("want ACT-c, got %v", d2.Kind)
	}
}

func TestLRUSelectsOldestWay(t *testing.T) {
	c := newTestCROW(2)
	c.Cache = true
	rows := []dram.Addr{{Row: 1}, {Row: 2}, {Row: 3}}
	for i, a := range rows[:2] {
		d := c.PlanActivate(a, int64(i*100))
		c.OnActivate(a, d, int64(i*100))
		c.OnPrecharge(a, a.Row, true, int64(i*100+50))
	}
	// Touch row 1 again so row 2 becomes LRU.
	d := c.PlanActivate(rows[0], 1000)
	if d.Kind != dram.ActTwo {
		t.Fatalf("row 1 must hit, got %v", d.Kind)
	}
	c.OnActivate(rows[0], d, 1000)
	c.OnPrecharge(rows[0], rows[0].Row, true, 1100)

	d3 := c.PlanActivate(rows[2], 2000)
	if d3.Kind != dram.ActCopy {
		t.Fatalf("row 3 must miss, got %v", d3.Kind)
	}
	c.OnActivate(rows[2], d3, 2000)
	if c.Table.Lookup(rows[1]) != -1 {
		t.Error("row 2 (LRU) must be evicted")
	}
	if c.Table.Lookup(rows[0]) == -1 {
		t.Error("row 1 (MRU) must survive")
	}
}

func TestRefRemapRedirectsActivation(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := NewCROW(1, g, tm)
	c.Ref = true
	prof := retention.FixedProfile(retGeo(g, 1), 3, 7)
	c.LoadProfile(prof)

	weakRow := prof.Weak[0][0][0][0][0]
	a := dram.Addr{Row: weakRow}
	d := c.PlanActivate(a, 0)
	if d.Kind != dram.ActCopyRow {
		t.Fatalf("weak row must be remapped to a copy row, got %v", d.Kind)
	}
	if d.Timing != tm.Base() {
		t.Error("remapped activations use baseline timings")
	}
	if c.RefreshMultiplier() != 2 {
		t.Error("CROW-ref must double the refresh window")
	}
	// A strong row activates normally.
	strong := dram.Addr{Row: 500}
	for _, w := range prof.Weak[0][0][0][0] {
		if w == 500 {
			t.Skip("unlucky profile")
		}
	}
	if d := c.PlanActivate(strong, 0); d.Kind != dram.ActSingle {
		t.Errorf("strong row must activate normally, got %v", d.Kind)
	}
}

func TestRefFallbackWhenSubarrayOverflows(t *testing.T) {
	g := dram.Std(2) // only two copy rows
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := NewCROW(1, g, tm)
	c.Ref = true
	c.LoadProfile(retention.FixedProfile(retGeo(g, 1), 3, 7)) // 3 weak > 2 ways
	if !c.Fallback {
		t.Error("overflowing a subarray must trigger the fallback")
	}
	if c.RefreshMultiplier() != 1 {
		t.Error("fallback must revert to the default refresh interval")
	}
}

func TestCombinedCacheUsesRemainingWays(t *testing.T) {
	g := dram.Std(4)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := NewCROW(1, g, tm)
	c.Cache = true
	c.Ref = true
	c.LoadProfile(retention.FixedProfile(retGeo(g, 1), 3, 7))

	// Only one way remains for caching in each subarray.
	a := dram.Addr{Row: findStrongRow(t, c, 0)}
	d := c.PlanActivate(a, 0)
	if d.Kind != dram.ActCopy {
		t.Fatalf("strong row must be cacheable, got %v", d.Kind)
	}
	c.OnActivate(a, d, 0)
	c.OnPrecharge(a, a.Row, true, 100)
	b := dram.Addr{Row: findStrongRowExcept(t, c, 0, a.Row)}
	d2 := c.PlanActivate(b, 200)
	if d2.Kind != dram.ActCopy {
		t.Fatalf("second strong row must evict the single cache way, got %v", d2.Kind)
	}
	c.OnActivate(b, d2, 200)
	// Ref entries must be untouched.
	set := c.Table.Set(a)
	refs := 0
	for _, e := range set {
		if e.Allocated && e.Kind == EntryRef {
			refs++
		}
	}
	if refs != 3 {
		t.Errorf("ref entries = %d, want 3 (pinned)", refs)
	}
}

func TestHammerRemapsVictims(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := NewCROW(1, g, tm)
	c.HammerThreshold = 5
	hammered := dram.Addr{Row: 100}
	for i := 0; i < 5; i++ {
		d := c.PlanActivate(hammered, int64(i))
		c.OnActivate(hammered, d, int64(i))
	}
	if c.Stats[TableHamRemap] != 2 {
		t.Fatalf("HamRemaps = %d, want 2 (rows 99 and 101)", c.Stats[TableHamRemap])
	}
	// Until the ACT-c data copy executes, the copy row is stale: victim
	// activations must perform the copy, not redirect to the copy row.
	for _, vr := range []int{99, 101} {
		d := c.PlanActivate(dram.Addr{Row: vr}, 100)
		if d.Kind != dram.ActCopy {
			t.Errorf("victim row %d with pending copy must plan ACT-c, got %v", vr, d.Kind)
		}
	}
	// The data copies must be queued for the controller.
	ops := 0
	for {
		op, ok := c.NextCopy(0, 0)
		if !ok {
			break
		}
		// Simulate the controller completing the copy: ACT-c then a
		// fully-restored precharge.
		c.OnPrecharge(op.Addr, op.Addr.Row, true, 200)
		ops++
	}
	if ops != 2 {
		t.Errorf("pending copies = %d, want 2", ops)
	}
	// With the copies done, victim activations redirect to the copy rows.
	for _, vr := range []int{99, 101} {
		d := c.PlanActivate(dram.Addr{Row: vr}, 300)
		if d.Kind != dram.ActCopyRow {
			t.Errorf("victim row %d must be remapped after the copy, got %v", vr, d.Kind)
		}
	}
	// Counters reset when the refresh counter wraps.
	c.OnRefreshRows(0, 0, 0, c.Table.Geo.Banks, 0, 8, 0)
	for i, n := range c.hammerCounts[0] {
		if n != 0 {
			t.Errorf("hammer counter %d = %d after the refresh-window boundary, want 0", i, n)
			break
		}
	}
}

func TestHammerAtBankEdge(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := NewCROW(1, g, tm)
	c.HammerThreshold = 2
	edge := dram.Addr{Row: 0}
	for i := 0; i < 2; i++ {
		d := c.PlanActivate(edge, int64(i))
		c.OnActivate(edge, d, int64(i))
	}
	if c.Stats[TableHamRemap] != 1 {
		t.Errorf("HamRemaps = %d, want 1 (row -1 does not exist)", c.Stats[TableHamRemap])
	}
}

func TestRefreshRestoresCachedPairs(t *testing.T) {
	c := newTestCROW(8)
	c.Cache = true
	a := dram.Addr{Row: 3}
	d := c.PlanActivate(a, 0)
	c.OnActivate(a, d, 0)
	c.OnPrecharge(a, a.Row, false, 50)                   // partial
	c.OnRefreshRows(0, 0, 0, c.Table.Geo.Banks, 0, 8, 0) // refreshes rows 0..7
	d2 := c.PlanActivate(a, 100)
	if d2.Timing != c.Crow.TwoFull {
		t.Error("refresh must fully restore in-range cached pairs")
	}
}

func TestIdealMechanism(t *testing.T) {
	tm := dram.LPDDR4(dram.Density8Gb, 64, dram.Std(8))
	i := &Ideal{T: tm}
	d := i.PlanActivate(dram.Addr{Row: 9}, 0)
	if d.Kind != dram.ActTwo {
		t.Error("ideal CROW-cache always activates with ACT-t")
	}
	if i.RefreshMultiplier() != 1 {
		t.Error("refresh stays on unless NoRefresh")
	}
	i.NoRefresh = true
	if i.RefreshMultiplier() != 0 {
		t.Error("NoRefresh must disable refresh")
	}
}

func TestBaselineMechanism(t *testing.T) {
	tm := dram.LPDDR4(dram.Density8Gb, 64, dram.Std(0))
	b := &Baseline{T: tm}
	d := b.PlanActivate(dram.Addr{Row: 1}, 0)
	if d.Kind != dram.ActSingle || d.Timing != tm.Base() {
		t.Errorf("baseline must use plain ACT: %+v", d)
	}
	if b.RefreshMultiplier() != 1 {
		t.Error("baseline refresh multiplier is 1")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	s[TableHit], s[TableMiss] = 3, 1
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %f, want 0.75", s.HitRate())
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Error("empty stats hit rate is 0")
	}
}

func findStrongRow(t *testing.T, c *CROW, sub int) int {
	t.Helper()
	g := c.Table.Geo
	for r := sub * g.RowsPerSubarray; r < (sub+1)*g.RowsPerSubarray; r++ {
		if c.Table.Lookup(dram.Addr{Row: r}) == -1 {
			return r
		}
	}
	t.Fatal("no strong row found")
	return -1
}

func findStrongRowExcept(t *testing.T, c *CROW, sub, except int) int {
	t.Helper()
	g := c.Table.Geo
	for r := sub * g.RowsPerSubarray; r < (sub+1)*g.RowsPerSubarray; r++ {
		if r != except && c.Table.Lookup(dram.Addr{Row: r}) == -1 {
			return r
		}
	}
	t.Fatal("no strong row found")
	return -1
}

// TestStatsSubCoversEveryField: Sub subtracts every counter from its own
// counterpart, and every event kind has a name, so a kind added to the list is
// cut at the warm-up boundary and named in a trace with no edit elsewhere.
func TestStatsSubCoversEveryField(t *testing.T) {
	var a, b Stats
	for k := range a {
		a[k], b[k] = int64(1000*(k+1)), int64(k+1)
	}
	for k, got := range a.Sub(b) {
		if want := int64(999 * (k + 1)); got != want {
			t.Errorf("Sub: %s = %d, want %d", TableEventKind(k), got, want)
		}
	}
	if len(tableEventNames) != len(a) {
		t.Errorf("%d event names for %d kinds", len(tableEventNames), len(a))
	}
}

type eventLog []TableEvent

func (l *eventLog) OnTableEvent(e TableEvent) { *l = append(*l, e) }

// TestTallyCountsWhatItReports: a count without an observer only counts, and
// with one attached every count is one event, carrying its arguments.
func TestTallyCountsWhatItReports(t *testing.T) {
	var tl Tally
	a := dram.Addr{Channel: 1, Bank: 2, Row: 3}
	tl.Count(TableHit, a, 4, 5)
	var log eventLog
	tl.Obs = &log
	tl.Count(TableHit, a, 4, 6)
	tl.Count(TableNeighborRefresh, a, -1, 7)
	if tl.Stats[TableHit] != 2 || tl.Stats[TableNeighborRefresh] != 1 {
		t.Errorf("counters %v", tl.Stats)
	}
	want := eventLog{{TableHit, 6, a, 4}, {TableNeighborRefresh, 7, a, -1}}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("events %v, want %v", log, want)
	}
	if tl.Counters() != &tl {
		t.Error("Counters does not answer with the embedded Tally")
	}
}
