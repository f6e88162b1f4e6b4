// Package cache implements the shared last-level cache of Table 2: 8 MiB,
// 8-way set-associative, 64 B lines, LRU replacement, write-back with
// write-allocate, and MSHR-based miss handling with request merging.
package cache

import "crowdram/internal/timeq"

// Config parameterizes the LLC.
type Config struct {
	SizeBytes  int64
	Assoc      int
	LineBytes  int
	HitLatency int64 // CPU cycles from access to data for a hit
	MSHRs      int   // maximum outstanding misses (global)
}

// DefaultConfig returns the Table 2 LLC: 8 MiB, 8-way, 64 B lines.
func DefaultConfig() Config {
	return Config{
		SizeBytes:  8 << 20,
		Assoc:      8,
		LineBytes:  64,
		HitLatency: 30,
		MSHRs:      64,
	}
}

// line is one way of a set in 16 bytes: word is tag<<2 | lineDirty |
// lineValid, where the tag is the line address (58 bits with 64-byte lines).
type line struct {
	word    uint64
	lastUse int64
}

const lineValid, lineDirty = 1, 2

// resident is the valid line holding tag.
func resident(tag uint64, dirty bool, lastUse int64) line {
	ln := line{word: tag<<2 | lineValid, lastUse: lastUse}
	if dirty {
		ln.word |= lineDirty
	}
	return ln
}

func (l line) tag() uint64 { return l.word >> 2 }
func (l line) valid() bool { return l.word&lineValid != 0 }

type waiter struct {
	write bool
	done  func(now int64)
}

type mshr struct {
	lineAddr uint64
	prefetch bool
	waiters  []waiter
	next     *mshr // freelist link
}

// Memory is the LLC's downstream port (the memory controllers). Send
// functions return false to reject (queue full); the cache retries. The
// owner delivers read data by calling Cache.Fill with the line address —
// there is no per-request callback, so the miss path allocates nothing.
type Memory interface {
	// SendRead requests a line fill; the owner calls Fill when the data
	// returns.
	SendRead(lineAddr uint64, prefetch bool) bool
	// SendWrite writes back a dirty line.
	SendWrite(lineAddr uint64) bool
}

// Stats counts LLC events.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64 // demand misses (includes merges into pending MSHRs)
	Writebacks int64
	PrefIssued int64
	PrefUseful int64 // demand hits on prefetched lines

	// Per-core demand accesses and misses, for MPKI accounting.
	CoreAccesses []int64
	CoreMisses   []int64
}

// Cache is the shared LLC.
type Cache struct {
	Cfg Config
	Mem Memory
	// lines is every set back to back: set s is lines[s*assoc:(s+1)*assoc].
	// One array instead of one per set, so building a cache is one
	// allocation — or none, when New finds a released one (slab.go).
	lines []line
	assoc int
	// prefetched marks resident lines that were filled by a prefetch and
	// not yet touched by demand.
	prefetched map[uint64]bool

	mshrs    map[uint64]*mshr
	mshrFree *mshr // recycled mshr structs (waiter slices retained)
	// unsent holds the mshrs whose downstream read was rejected, oldest
	// first: Tick retries them in allocation order, so which one takes a
	// freed queue slot does not depend on map iteration order.
	unsent  []*mshr
	wbQ     []uint64                     // writebacks the memory rejected, to retry
	delayed timeq.Queue[func(now int64)] // hit callbacks, due at At

	setMask  uint64
	lineBits uint

	Stats Stats
}

// New builds an empty cache connected to mem, sized for `cores` per-core
// stat slots.
func New(cfg Config, mem Memory, cores int) *Cache {
	numSets := cfg.SizeBytes / int64(cfg.LineBytes) / int64(cfg.Assoc)
	c := &Cache{
		Cfg:        cfg,
		Mem:        mem,
		lines:      takeSlab(int(numSets) * cfg.Assoc),
		assoc:      cfg.Assoc,
		mshrs:      make(map[uint64]*mshr),
		prefetched: make(map[uint64]bool),
		setMask:    uint64(numSets - 1),
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	c.Stats.CoreAccesses = make([]int64, cores)
	c.Stats.CoreMisses = make([]int64, cores)
	return c
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineBits }

func (c *Cache) set(lineAddr uint64) []line {
	i := int(lineAddr&c.setMask) * c.assoc
	return c.lines[i : i+c.assoc : i+c.assoc]
}

// Release hands the line array to the next New (slab.go) and leaves the
// cache without one: whoever built the cache calls it once the run that
// used it is over, and any access after that panics instead of touching
// lines another run now owns.
func (c *Cache) Release() {
	putSlab(c.lines)
	c.lines = nil
}

func (c *Cache) find(lineAddr uint64) *line {
	set := c.set(lineAddr)
	want := resident(lineAddr, false, 0).word
	for i := range set {
		if set[i].word&^lineDirty == want {
			return &set[i]
		}
	}
	return nil
}

// newMSHR takes a recycled mshr from the freelist (or allocates one) and
// registers it for lineAddr.
func (c *Cache) newMSHR(lineAddr uint64) *mshr {
	m := c.mshrFree
	if m != nil {
		c.mshrFree = m.next
		m.next = nil
	} else {
		m = &mshr{}
	}
	m.lineAddr = lineAddr
	c.mshrs[lineAddr] = m
	return m
}

// releaseMSHR returns a completed mshr to the freelist, keeping its waiter
// slice's capacity.
func (c *Cache) releaseMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = waiter{}
	}
	m.waiters = m.waiters[:0]
	m.prefetch = false
	m.next = c.mshrFree
	c.mshrFree = m
}

// Access performs a demand access. It returns accepted=false when the miss
// cannot be tracked (MSHRs full) — the core must retry. On acceptance, hit
// reports whether the line was resident or had to be fetched; done runs when
// the data is available (for writes, when the line is writable).
func (c *Cache) Access(now int64, core int, addr uint64, write bool, done func(now int64)) (accepted, hit bool) {
	la := c.lineAddr(addr)
	if ln := c.find(la); ln != nil {
		c.Stats.Accesses++
		c.Stats.Hits++
		c.Stats.CoreAccesses[core]++
		ln.lastUse = now
		if write {
			ln.word |= lineDirty
		}
		// The map is empty unless a prefetcher runs.
		if len(c.prefetched) > 0 && c.prefetched[la] {
			delete(c.prefetched, la)
			c.Stats.PrefUseful++
		}
		if done != nil {
			c.delayed.Push(now+c.Cfg.HitLatency, done)
		}
		return true, true
	}
	// Merge into a pending miss.
	if m, ok := c.mshrs[la]; ok {
		c.Stats.Accesses++
		c.Stats.Misses++
		c.Stats.CoreAccesses[core]++
		c.Stats.CoreMisses[core]++
		m.waiters = append(m.waiters, waiter{write: write, done: done})
		if m.prefetch {
			m.prefetch = false // late promotion to demand
			c.Stats.PrefUseful++
		}
		return true, false
	}
	if len(c.mshrs) >= c.Cfg.MSHRs {
		return false, false
	}
	c.Stats.Accesses++
	c.Stats.Misses++
	c.Stats.CoreAccesses[core]++
	c.Stats.CoreMisses[core]++
	m := c.newMSHR(la)
	m.waiters = append(m.waiters, waiter{write: write, done: done})
	c.send(m)
	return true, false
}

// Prefetch requests a line fill without a waiter; it is dropped if the line
// is resident, already pending, or MSHRs are exhausted.
func (c *Cache) Prefetch(now int64, addr uint64) bool {
	la := c.lineAddr(addr)
	if c.find(la) != nil {
		return false
	}
	if _, ok := c.mshrs[la]; ok {
		return false
	}
	if len(c.mshrs) >= c.Cfg.MSHRs {
		return false
	}
	m := c.newMSHR(la)
	m.prefetch = true
	c.send(m)
	c.Stats.PrefIssued++
	return true
}

// send issues a new mshr's read downstream, queueing it for Tick to retry
// if the memory rejects it.
func (c *Cache) send(m *mshr) {
	if !c.sendRead(m) {
		c.unsent = append(c.unsent, m)
	}
}

func (c *Cache) sendRead(m *mshr) bool {
	return c.Mem.SendRead(m.lineAddr<<c.lineBits, m.prefetch)
}

// Fill installs a returned line and wakes its waiters. The cache's owner
// calls it when the read it accepted via Memory.SendRead completes.
func (c *Cache) Fill(now int64, addr uint64) {
	la := c.lineAddr(addr)
	m := c.mshrs[la]
	delete(c.mshrs, la)
	set := c.set(la)
	victim := 0
	for i := range set {
		if !set[i].valid() {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if old := set[victim]; old.word&lineDirty != 0 { // only a valid line is dirty
		c.Stats.Writebacks++
		wb := old.tag() << c.lineBits
		if !c.Mem.SendWrite(wb) {
			c.wbQ = append(c.wbQ, wb)
		}
	}
	if len(c.prefetched) > 0 && set[victim].valid() {
		delete(c.prefetched, set[victim].tag())
	}
	dirty := false
	if m != nil {
		for _, w := range m.waiters {
			if w.write {
				dirty = true
			}
			if w.done != nil {
				w.done(now)
			}
		}
		if m.prefetch {
			c.prefetched[la] = true
		}
		c.releaseMSHR(m)
	}
	set[victim] = resident(la, dirty, now)
}

// Tick fires due hit callbacks and retries rejected downstream sends.
func (c *Cache) Tick(now int64) {
	for len(c.delayed) > 0 && c.delayed[0].At <= now {
		c.delayed.Pop()(now)
	}
	n := 0
	for n < len(c.wbQ) && c.Mem.SendWrite(c.wbQ[n]) {
		n++
	}
	if n > 0 {
		// Move what is left to the front: the array is reused however often
		// the memory stalls, where wbQ = wbQ[1:] gave its capacity away.
		c.wbQ = c.wbQ[:copy(c.wbQ, c.wbQ[n:])]
	}
	if len(c.unsent) > 0 {
		// Every rejected read is offered again (they may go to different
		// channels), oldest first; the ones rejected again keep their order.
		keep := c.unsent[:0]
		for _, m := range c.unsent {
			if !c.sendRead(m) {
				keep = append(keep, m)
			}
		}
		c.unsent = keep
	}
}

// NextEvent returns the earliest CPU cycle after `now` at which Tick could
// do any work: the next due hit callback, or now+1 while downstream retries
// (rejected reads or writebacks) are pending. With nothing in flight it
// returns Horizon; the run loop uses this to skip the cache's idle cycles.
func (c *Cache) NextEvent(now int64) int64 {
	if len(c.unsent) > 0 || len(c.wbQ) > 0 {
		return now + 1
	}
	if len(c.delayed) > 0 {
		if at := c.delayed[0].At; at > now {
			return at
		}
		return now + 1
	}
	return Horizon
}

// Horizon mirrors dram.Horizon: a sentinel "no event scheduled" cycle.
const Horizon = int64(1) << 60

// MPKI returns per-core LLC misses per kilo-instruction given retired
// instruction counts.
func (c *Cache) MPKI(coreInsts []int64) []float64 {
	out := make([]float64, len(coreInsts))
	for i := range out {
		if coreInsts[i] > 0 {
			out[i] = float64(c.Stats.CoreMisses[i]) * 1000 / float64(coreInsts[i])
		}
	}
	return out
}

// ResetStats zeroes the statistics (after warmup), preserving per-core slot
// counts.
func (c *Cache) ResetStats() {
	cores := len(c.Stats.CoreAccesses)
	c.Stats = Stats{
		CoreAccesses: make([]int64, cores),
		CoreMisses:   make([]int64, cores),
	}
}
