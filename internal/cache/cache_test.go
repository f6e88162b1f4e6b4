package cache

import (
	"testing"
	"testing/quick"
)

// fakeMem is a scriptable memory backend. It records accepted reads and
// delivers them back through Cache.Fill when fillAll runs, the way the
// simulator's memory port does.
type fakeMem struct {
	c       *Cache
	reads   []uint64
	writes  []uint64
	pending []uint64
	reject  bool
}

func (m *fakeMem) SendRead(lineAddr uint64, pref bool) bool {
	if m.reject {
		return false
	}
	m.reads = append(m.reads, lineAddr)
	m.pending = append(m.pending, lineAddr)
	return true
}

func (m *fakeMem) SendWrite(lineAddr uint64) bool {
	if m.reject {
		return false
	}
	m.writes = append(m.writes, lineAddr)
	return true
}

func (m *fakeMem) fillAll(now int64) {
	p := m.pending
	m.pending = nil
	for _, la := range p {
		m.c.Fill(now, la)
	}
}

func small() Config {
	return Config{SizeBytes: 8 * 1024, Assoc: 2, LineBytes: 64, HitLatency: 10, MSHRs: 4}
}

// newTestCache wires the cache and fakeMem together (Fill needs the cache).
func newTestCache(cfg Config, mem *fakeMem, cores int) *Cache {
	c := New(cfg, mem, cores)
	mem.c = c
	return c
}

func TestMissThenHit(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 1)
	var missDone, hitDone int64 = -1, -1
	acc, hit := c.Access(0, 0, 0x1000, false, func(now int64) { missDone = now })
	if !acc || hit {
		t.Fatal("first access must be an accepted miss")
	}
	if len(mem.reads) != 1 || mem.reads[0] != 0x1000 {
		t.Fatalf("read sent = %v, want [0x1000]", mem.reads)
	}
	mem.fillAll(50)
	if missDone != 50 {
		t.Errorf("miss completed at %d, want 50", missDone)
	}
	acc, hit = c.Access(60, 0, 0x1000, false, func(now int64) { hitDone = now })
	if !acc || !hit {
		t.Fatal("second access must hit")
	}
	c.Tick(70)
	if hitDone != 70 {
		t.Errorf("hit completed at %d, want 70 (latency 10)", hitDone)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestMSHRMergeAndLimit(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 2)
	done := 0
	cb := func(int64) { done++ }
	c.Access(0, 0, 0x1000, false, cb)
	c.Access(1, 1, 0x1000, false, cb) // merges
	if len(mem.reads) != 1 {
		t.Fatalf("merged miss must send one read, sent %d", len(mem.reads))
	}
	// Fill up remaining MSHRs.
	c.Access(2, 0, 0x2000, false, cb)
	c.Access(3, 0, 0x3000, false, cb)
	c.Access(4, 0, 0x4000, false, cb)
	if acc, _ := c.Access(5, 0, 0x5000, false, cb); acc {
		t.Error("fifth distinct miss must be rejected (4 MSHRs)")
	}
	mem.fillAll(100)
	if done != 5 {
		t.Errorf("done = %d, want 5 (merged waiters all fire)", done)
	}
	if c.Stats.CoreMisses[0] != 4 || c.Stats.CoreMisses[1] != 1 {
		t.Errorf("per-core misses: %v", c.Stats.CoreMisses)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 1)
	// Two lines mapping to the same set (assoc 2): setMask = 8KiB/64/2-1 = 63.
	base := uint64(0x0)
	s1 := base + 64*64*2 // same set, different tag
	s2 := base + 64*64*4
	c.Access(0, 0, base, true, nil) // write-allocate, dirty
	mem.fillAll(1)
	c.Access(2, 0, s1, false, nil)
	mem.fillAll(3)
	c.Access(4, 0, s2, false, nil) // evicts LRU (base, dirty)
	mem.fillAll(5)
	if len(mem.writes) != 1 || mem.writes[0] != base {
		t.Errorf("writebacks = %v, want [%#x]", mem.writes, base)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestWritebackRetryWhenRejected(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 1)
	c.Access(0, 0, 0, true, nil) // dirty line
	mem.fillAll(1)
	c.Access(2, 0, 64*64*2, false, nil)
	mem.fillAll(3)
	c.Access(4, 0, 64*64*4, false, nil) // will evict the dirty line
	// Reject exactly when the fill triggers the dirty eviction.
	mem.reject = true
	mem.fillAll(5)
	if len(mem.writes) != 0 {
		t.Fatal("write must have been rejected")
	}
	mem.reject = false
	c.Tick(6)
	if len(mem.writes) != 1 || mem.writes[0] != 0 {
		t.Errorf("rejected writeback must be retried on Tick: %v", mem.writes)
	}
}

func TestPrefetchFillAndPromotion(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 1)
	if !c.Prefetch(0, 0x1000) {
		t.Fatal("prefetch of absent line must issue")
	}
	if c.Prefetch(1, 0x1000) {
		t.Error("duplicate prefetch must be dropped")
	}
	mem.fillAll(10)
	// Demand hit on a prefetched line counts as useful.
	c.Access(20, 0, 0x1000, false, nil)
	if c.Stats.PrefUseful != 1 {
		t.Errorf("PrefUseful = %d, want 1", c.Stats.PrefUseful)
	}
	// Late promotion: demand access while prefetch pending.
	c.Prefetch(30, 0x2000)
	c.Access(31, 0, 0x2000, false, nil)
	mem.fillAll(40)
	if c.Stats.PrefUseful != 2 {
		t.Errorf("PrefUseful = %d, want 2 (late promotion)", c.Stats.PrefUseful)
	}
}

func TestLRUReplacement(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 1)
	a, b, d := uint64(0), uint64(64*64*2), uint64(64*64*4) // same set
	c.Access(0, 0, a, false, nil)
	mem.fillAll(1)
	c.Access(2, 0, b, false, nil)
	mem.fillAll(3)
	c.Access(4, 0, a, false, nil) // touch a: b becomes LRU
	c.Access(5, 0, d, false, nil)
	mem.fillAll(6)
	if _, hit := c.Access(7, 0, a, false, nil); !hit {
		t.Error("a (MRU) must survive")
	}
	if _, hit := c.Access(8, 0, b, false, nil); hit {
		t.Error("b (LRU) must have been evicted")
	}
}

func TestResetStatsPreservesSlots(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 3)
	c.Access(0, 2, 0x1000, false, nil)
	c.ResetStats()
	if len(c.Stats.CoreMisses) != 3 || c.Stats.Misses != 0 {
		t.Errorf("reset broken: %+v", c.Stats)
	}
}

func TestMPKI(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 2)
	c.Access(0, 0, 0x1000, false, nil)
	c.Access(0, 0, 0x2000, false, nil)
	got := c.MPKI([]int64{1000, 1000})
	if got[0] != 2 || got[1] != 0 {
		t.Errorf("MPKI = %v, want [2 0]", got)
	}
}

// TestAccessAlwaysAcceptedWhenResident: resident lines never bounce,
// regardless of MSHR pressure — property test.
func TestAccessAlwaysAcceptedWhenResident(t *testing.T) {
	mem := &fakeMem{}
	c := newTestCache(small(), mem, 1)
	c.Access(0, 0, 0x8000, false, nil)
	mem.fillAll(1)
	// Exhaust MSHRs.
	for i := 0; i < 4; i++ {
		c.Access(2, 0, uint64(0x10000+i*4096), false, nil)
	}
	f := func(write bool) bool {
		acc, hit := c.Access(10, 0, 0x8000, write, nil)
		return acc && hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// meterMem accepts up to `reads` reads, then rejects; writes are accepted
// unless rejectWrites. It records what it accepted without allocating per
// write, so it can sit inside an allocation count.
type meterMem struct {
	reads        int
	accepted     []uint64
	rejectWrites bool
	writes       int
}

func (m *meterMem) SendRead(lineAddr uint64, pref bool) bool {
	if m.reads == 0 {
		return false
	}
	m.reads--
	m.accepted = append(m.accepted, lineAddr)
	return true
}

func (m *meterMem) SendWrite(lineAddr uint64) bool {
	if m.rejectWrites {
		return false
	}
	m.writes++
	return true
}

// TestRejectedReadsRetryInIssueOrder: with several reads rejected and one
// queue slot freed per tick, the slot goes to the oldest miss. Walking the
// mshr map instead picked a different winner from run to run.
func TestRejectedReadsRetryInIssueOrder(t *testing.T) {
	cfg := small()
	cfg.MSHRs = 8
	for rep := 0; rep < 100; rep++ {
		mem := &meterMem{}
		c := New(cfg, mem, 1)
		var issued []uint64
		for i := 0; i < cfg.MSHRs; i++ {
			addr := uint64(0x1000 * (i + 1))
			if i%3 == 2 {
				c.Prefetch(int64(i), addr)
			} else {
				c.Access(int64(i), 0, addr, false, nil)
			}
			issued = append(issued, addr)
		}
		for now := int64(100); len(mem.accepted) < len(issued); now++ {
			if c.NextEvent(now-1) != now {
				t.Fatalf("rep %d: NextEvent = %d with reads unsent, want %d", rep, c.NextEvent(now-1), now)
			}
			mem.reads = 1
			c.Tick(now)
		}
		for i := range issued {
			if mem.accepted[i] != issued[i] {
				t.Fatalf("rep %d: reads accepted as %#x, issued as %#x", rep, mem.accepted, issued)
			}
		}
		c.Tick(1000)
		if len(mem.accepted) != len(issued) || c.NextEvent(1000) != Horizon {
			t.Fatalf("rep %d: a sent read was retried or is still queued", rep)
		}
	}
}

// TestWritebackRetryQueueKeepsItsArray: a write-queue stall that ends and
// starts again must queue into the array the last one used. Popping with
// wbQ = wbQ[1:] gave the capacity away, one reallocation per stall.
func TestWritebackRetryQueueKeepsItsArray(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SizeBytes = 1 << 20
	mem := &meterMem{}
	c := New(cfg, mem, 1)
	c.Prefill(28, 1, 1) // every line dirty: each fill below evicts one
	const perStall = 3
	var now int64
	var fills int
	stall := func() {
		mem.rejectWrites = true
		for i := 0; i < perStall; i++ {
			fills++
			now++
			c.Fill(now, 1<<40|uint64(fills)<<6) // a tag no set holds, one set each
		}
		c.Tick(now) // still stalled: nothing leaves
		if c.Pending() != perStall {
			t.Fatalf("%d write-backs queued, want %d", c.Pending(), perStall)
		}
		mem.rejectWrites = false
		c.Tick(now)
	}
	stall()
	if allocs := testing.AllocsPerRun(100, stall); allocs != 0 {
		t.Errorf("a reject/accept/reject cycle allocates %.0f times, want 0", allocs)
	}
	if mem.writes != fills || c.Pending() != 0 {
		t.Errorf("%d of %d write-backs delivered, %d pending", mem.writes, fills, c.Pending())
	}
}
