package cpu

import (
	"math"
	"slices"
	"testing"

	"crowdram/internal/trace"
)

// scriptGen replays a fixed record sequence, then repeats the last record.
type scriptGen struct {
	recs []trace.Record
	i    int
}

func (g *scriptGen) Next() trace.Record {
	if g.i < len(g.recs) {
		r := g.recs[g.i]
		g.i++
		return r
	}
	return g.recs[len(g.recs)-1]
}

// idXlat is the identity translation.
type idXlat struct{}

func (idXlat) Translate(core int, v uint64) uint64 { return v }

// scriptMem records accesses and completes them on demand.
type scriptMem struct {
	pending []func(int64)
	hit     bool
	accept  bool
	count   int
}

func (m *scriptMem) Access(now int64, core int, addr uint64, write bool, done func(now int64)) (bool, bool) {
	if !m.accept {
		return false, false
	}
	m.count++
	if m.hit {
		// Hits complete via a delayed callback as the LLC does.
		m.pending = append(m.pending, done)
		return true, true
	}
	m.pending = append(m.pending, done)
	return true, false
}

func (m *scriptMem) completeAll(now int64) {
	p := m.pending
	m.pending = nil
	for _, d := range p {
		d(now)
	}
}

func TestBubblesRetireAtFullWidth(t *testing.T) {
	mem := &scriptMem{accept: true, hit: true}
	gen := &scriptGen{recs: []trace.Record{{Bubbles: 1000, Addr: 0}}}
	c := New(0, DefaultConfig(), gen, mem, idXlat{})
	for i := int64(1); i <= 100; i++ {
		c.Tick(i)
	}
	// Steady state: 4-wide issue and retire of pure bubbles => IPC ~ 4.
	if ipc := c.IPC(); ipc < 3.5 {
		t.Errorf("bubble IPC = %.2f, want ~4", ipc)
	}
}

func TestLoadBlocksRetirement(t *testing.T) {
	mem := &scriptMem{accept: true, hit: false}
	gen := &scriptGen{recs: []trace.Record{{Bubbles: 0, Addr: 64}, {Bubbles: 1 << 20, Addr: 128}}}
	cfg := DefaultConfig()
	c := New(0, cfg, gen, mem, idXlat{})
	for i := int64(1); i <= 50; i++ {
		c.Tick(i)
	}
	// The first load is outstanding; bubbles behind it fill the window
	// but cannot retire past it.
	if c.Retired != 0 {
		t.Errorf("retired %d instructions past an outstanding load", c.Retired)
	}
	if occ := int(c.issueSeq - c.retireSeq); occ != cfg.Window {
		t.Errorf("window occupancy = %d, want full (%d)", occ, cfg.Window)
	}
	if c.StallWindow == 0 {
		t.Error("window-full stalls must be counted")
	}
	mem.completeAll(51)
	for i := int64(51); i <= 100; i++ {
		c.Tick(i)
	}
	if c.Retired == 0 {
		t.Error("retirement must resume after the load completes")
	}
}

func TestMSHRLimitStallsIssue(t *testing.T) {
	mem := &scriptMem{accept: true, hit: false}
	recs := make([]trace.Record, 0, 32)
	for i := 0; i < 32; i++ {
		recs = append(recs, trace.Record{Bubbles: 0, Addr: uint64(i * 64)})
	}
	gen := &scriptGen{recs: recs}
	cfg := DefaultConfig()
	c := New(0, cfg, gen, mem, idXlat{})
	for i := int64(1); i <= 50; i++ {
		c.Tick(i)
	}
	if mem.count != cfg.MSHRs {
		t.Errorf("issued %d memory ops, want MSHR limit %d", mem.count, cfg.MSHRs)
	}
	if c.StallMSHR == 0 {
		t.Error("MSHR stalls must be counted")
	}
	mem.completeAll(51)
	c.Tick(51)
	c.Tick(52)
	if mem.count <= cfg.MSHRs {
		t.Error("issue must resume after MSHRs free up")
	}
}

func TestStoresRetireWithoutWaiting(t *testing.T) {
	mem := &scriptMem{accept: true, hit: false}
	gen := &scriptGen{recs: []trace.Record{
		{Bubbles: 0, Addr: 64, Write: true},
		{Bubbles: 1 << 20, Addr: 128},
	}}
	c := New(0, DefaultConfig(), gen, mem, idXlat{})
	for i := int64(1); i <= 20; i++ {
		c.Tick(i)
	}
	// The store (miss, never filled) must not block retirement.
	if c.Retired == 0 {
		t.Error("store must retire via the store buffer")
	}
}

func TestHitsDoNotConsumeMSHRs(t *testing.T) {
	mem := &scriptMem{accept: true, hit: true}
	recs := make([]trace.Record, 0, 64)
	for i := 0; i < 64; i++ {
		recs = append(recs, trace.Record{Bubbles: 0, Addr: uint64(i * 64)})
	}
	gen := &scriptGen{recs: recs}
	cfg := DefaultConfig()
	c := New(0, cfg, gen, mem, idXlat{})
	for i := int64(1); i <= 10; i++ {
		c.Tick(i)
	}
	if mem.count <= cfg.MSHRs {
		t.Errorf("hits must not be limited by MSHRs: issued %d", mem.count)
	}
	// Complete all hits; outstanding must never go negative (would panic
	// on a later underflow or misbehave). Verified by continuing to run.
	mem.completeAll(11)
	for i := int64(11); i <= 30; i++ {
		c.Tick(i)
	}
	if c.outstanding != 0 {
		t.Errorf("outstanding = %d, want 0", c.outstanding)
	}
}

func TestRejectedAccessRetries(t *testing.T) {
	mem := &scriptMem{accept: false}
	gen := &scriptGen{recs: []trace.Record{{Bubbles: 0, Addr: 64}}}
	c := New(0, DefaultConfig(), gen, mem, idXlat{})
	for i := int64(1); i <= 5; i++ {
		c.Tick(i)
	}
	if mem.count != 0 {
		t.Error("no access should have been recorded while rejecting")
	}
	mem.accept = true
	c.Tick(6)
	if mem.count == 0 {
		t.Errorf("access must be retried after rejection, count=%d", mem.count)
	}
}

func TestResetStats(t *testing.T) {
	mem := &scriptMem{accept: true, hit: true}
	gen := &scriptGen{recs: []trace.Record{{Bubbles: 100, Addr: 64}}}
	c := New(0, DefaultConfig(), gen, mem, idXlat{})
	for i := int64(1); i <= 20; i++ {
		c.Tick(i)
	}
	c.ResetStats()
	if c.Retired != 0 || c.Cycles != 0 {
		t.Error("ResetStats must zero counters")
	}
	c.Tick(21)
	if c.Cycles != 1 {
		t.Error("counting must resume after reset")
	}
}

// refCore is the core this package had before the window became a pair of
// sequence numbers: a ring of ready flags, one push and one retire step per
// instruction, every cycle ticked. It is the one independent restatement of
// the model, kept as the reference Tick, Horizon and Advance are fuzzed
// against.
type refCore struct {
	ID   int
	Cfg  Config
	Gen  trace.Generator
	Mem  Memory
	Xlat Translator

	ready       []bool
	head, count int

	bubblesLeft int
	rec         trace.Record
	haveRec     bool
	outstanding int

	loadDone  []func(now int64)
	loadMiss  []bool
	storeDone []func(now int64)
	storeMiss []bool
	storeFree []int

	Retired, Cycles        int64
	StallWindow, StallMSHR int64
}

func newRefCore(id int, cfg Config, gen trace.Generator, mem Memory, xlat Translator) *refCore {
	c := &refCore{
		ID: id, Cfg: cfg, Gen: gen, Mem: mem, Xlat: xlat,
		ready:    make([]bool, cfg.Window),
		loadDone: make([]func(now int64), cfg.Window),
		loadMiss: make([]bool, cfg.Window),
	}
	for i := range c.loadDone {
		idx := i
		c.loadDone[idx] = func(int64) {
			if c.loadMiss[idx] {
				c.loadMiss[idx] = false
				c.outstanding--
			}
			c.ready[idx] = true
		}
	}
	return c
}

func (c *refCore) storeToken() int {
	if n := len(c.storeFree); n > 0 {
		t := c.storeFree[n-1]
		c.storeFree = c.storeFree[:n-1]
		return t
	}
	t := len(c.storeDone)
	c.storeMiss = append(c.storeMiss, false)
	c.storeDone = append(c.storeDone, func(int64) {
		if c.storeMiss[t] {
			c.storeMiss[t] = false
			c.outstanding--
		}
		c.storeFree = append(c.storeFree, t)
	})
	return t
}

func (c *refCore) push(ready bool) int {
	idx := (c.head + c.count) % c.Cfg.Window
	c.ready[idx] = ready
	c.count++
	return idx
}

func (c *refCore) Tick(now int64) {
	c.Cycles++
	for i := 0; i < c.Cfg.Width && c.count > 0 && c.ready[c.head]; i++ {
		c.head = (c.head + 1) % c.Cfg.Window
		c.count--
		c.Retired++
	}
	for i := 0; i < c.Cfg.Width; i++ {
		if c.count >= c.Cfg.Window {
			c.StallWindow++
			return
		}
		if c.bubblesLeft > 0 {
			c.push(true)
			c.bubblesLeft--
			continue
		}
		if !c.haveRec {
			c.rec = c.Gen.Next()
			c.haveRec = true
			if c.rec.Bubbles > 0 {
				c.bubblesLeft = c.rec.Bubbles
				continue // bubbles issue from the next slot
			}
		}
		if c.outstanding >= c.Cfg.MSHRs {
			c.StallMSHR++
			return
		}
		addr := c.Xlat.Translate(c.ID, c.rec.Addr)
		if c.rec.Write {
			c.push(true)
			tok := c.storeToken()
			accepted, hit := c.Mem.Access(now, c.ID, addr, true, c.storeDone[tok])
			if !accepted {
				c.count--
				c.storeFree = append(c.storeFree, tok)
				c.StallMSHR++
				return
			}
			if !hit {
				c.outstanding++
				c.storeMiss[tok] = true
			}
		} else {
			idx := c.push(false)
			accepted, hit := c.Mem.Access(now, c.ID, addr, false, c.loadDone[idx])
			if !accepted {
				c.count--
				c.StallMSHR++
				return
			}
			if !hit {
				c.outstanding++
				c.loadMiss[idx] = true
			}
		}
		c.haveRec = false
	}
}

// access is one call a core made to its memory.
type access struct {
	cycle int64
	addr  uint64
	write bool
}

// fuzzMem answers the k-th Access from the k-th byte of its script: bits 0-1
// zero rejects it, bit 2 makes it a hit, bits 3-7 are the completion delay in
// cycles — tripled for a miss, so misses complete out of order among
// themselves and with hits — and a hit with delay 0 completes inside Access,
// as bench's always-hit memory does. Two memories with one script answer two
// cores alike for as long as the cores behave alike.
type fuzzMem struct {
	script []byte
	log    []access
	due    []int64
	done   []func(int64)
}

func (m *fuzzMem) Access(now int64, _ int, addr uint64, write bool, done func(int64)) (bool, bool) {
	b := m.script[len(m.log)%len(m.script)]
	m.log = append(m.log, access{now, addr, write})
	if b&3 == 0 {
		return false, false
	}
	hit, delay := b&4 != 0, int64(b>>3)
	switch {
	case !hit:
		delay = 1 + 3*delay
	case delay == 0:
		done(now)
		return true, true
	}
	m.due = append(m.due, now+delay)
	m.done = append(m.done, done)
	return true, hit
}

// deliver fires the completions due by now, after the core's tick of that
// cycle, as the LLC does.
func (m *fuzzMem) deliver(now int64) {
	keep := 0
	for i, at := range m.due {
		if at <= now {
			m.done[i](now)
			continue
		}
		m.due[keep], m.done[keep] = at, m.done[i]
		keep++
	}
	m.due, m.done = m.due[:keep], m.done[:keep]
}

// next returns the cycle of the earliest pending completion.
func (m *fuzzMem) next() int64 {
	at := int64(math.MaxInt64)
	for _, d := range m.due {
		at = min(at, d)
	}
	return at
}

// fuzzRecords turns three bytes into one record: Bubbles 0…1 000, a store on
// bit 2 of the second byte, one of 256 lines.
func fuzzRecords(data []byte) []trace.Record {
	var recs []trace.Record
	for ; len(data) >= 3; data = data[3:] {
		recs = append(recs, trace.Record{
			Bubbles: (int(data[0]) | int(data[1]&3)<<8) % 1001,
			Write:   data[1]&4 != 0,
			Addr:    uint64(data[2]) * 64,
		})
	}
	return recs
}

// bubbles encodes a load of line `line` behind n bubbles for fuzzRecords.
func bubbles(n int, line byte) []byte { return []byte{byte(n), byte(n >> 8), line} }

// FuzzCoreAdvance drives the reference core and the new one with one scripted
// trace and one scripted memory each. The reference ticks every cycle; the new
// core jumps whenever it reports a horizon, as far as the next completion
// allows, with its self-check on, and must never carry Retired across `until`
// inside a jump. After every step the two must agree on every exported counter
// and on every access they made: cycle, address and direction.
func FuzzCoreAdvance(f *testing.F) {
	// Trap (a): records fetched mid-tick, their bubbles starting one slot on.
	f.Add(slices.Concat(bubbles(1, 1), bubbles(2, 2), bubbles(3, 3), bubbles(5, 4), bubbles(7, 5)), []byte{0x0f}, byte(120), byte(3), byte(7), uint16(90))
	// Trap (b): hits completed inside Access, between rejections.
	f.Add(slices.Concat(bubbles(0, 1), bubbles(0, 2), bubbles(9, 3), bubbles(0, 4)), []byte{0x05, 0x00, 0x05, 0x0d, 0x00}, byte(0), byte(3), byte(1), uint16(40))
	// Trap (c): long runs of bubbles on either side of the target.
	f.Add(slices.Concat(bubbles(1000, 1), bubbles(997, 2), bubbles(640, 3)), []byte{0x3c, 0x0f}, byte(120), byte(3), byte(7), uint16(1501))
	// Misses out of order under a small window and two MSHRs; stores.
	f.Add(slices.Concat(bubbles(0, 1), bubbles(0, 2), []byte{4, 4, 3}, bubbles(30, 4), bubbles(0, 5), bubbles(200, 6)), []byte{0xf9, 0x09, 0x31, 0x0d, 0x00, 0x51}, byte(0), byte(1), byte(1), uint16(300))
	f.Fuzz(func(t *testing.T, trc, script []byte, window, width, mshrs byte, until uint16) {
		recs := fuzzRecords(trc)
		if len(recs) == 0 || len(script) == 0 {
			t.Skip()
		}
		cfg := Config{Width: 1 + int(width)%4, Window: 8 + int(window)%121, MSHRs: 1 + int(mshrs)%8}
		target := int64(until)
		refMem, mem := &fuzzMem{script: script}, &fuzzMem{script: script}
		ref := newRefCore(0, cfg, &scriptGen{recs: recs}, refMem, idXlat{})
		c := New(0, cfg, &scriptGen{recs: recs}, mem, idXlat{})
		c.verify = true // and every Advance against the Ticks it stands for, ring included
		for now, jumps, seen := int64(0), 0, 0; now < 6_000; {
			stop := int64(math.MaxInt64)
			if c.Retired < target {
				stop = target
			}
			n := min(c.Horizon(stop), mem.next()-now-1, 6_000-now)
			if n > 0 {
				before := c.Retired
				c.Advance(n)
				if before < target && c.Retired >= target {
					t.Fatalf("cycle %d: Advance(%d) carried Retired %d -> %d across %d", now, n, before, c.Retired, target)
				}
				jumps++
			} else {
				n = 1
				c.Tick(now + 1)
				mem.deliver(now + 1)
			}
			for i := int64(1); i <= n; i++ {
				ref.Tick(now + i)
				refMem.deliver(now + i)
			}
			now += n
			if c.Retired != ref.Retired || c.Cycles != ref.Cycles ||
				c.StallWindow != ref.StallWindow || c.StallMSHR != ref.StallMSHR {
				t.Fatalf("cycle %d, after %d jumps (last step %d cycles): retired/cycles/stallWindow/stallMSHR = %d/%d/%d/%d, reference %d/%d/%d/%d",
					now, jumps, n, c.Retired, c.Cycles, c.StallWindow, c.StallMSHR,
					ref.Retired, ref.Cycles, ref.StallWindow, ref.StallMSHR)
			}
			if !slices.Equal(mem.log[seen:], refMem.log[seen:]) {
				t.Fatalf("cycle %d: accesses %v, reference %v", now, mem.log[seen:], refMem.log[seen:])
			}
			seen = len(mem.log)
		}
	})
}

// hitMem is the always-hit memory of bench's layer ladder: the completion
// fires inside Access.
type hitMem struct{}

func (hitMem) Access(now int64, _ int, _ uint64, _ bool, done func(int64)) (bool, bool) {
	done(now)
	return true, true
}

// BenchmarkCoreTick is one core on gcc's trace against the always-hit memory,
// every cycle ticked: what crowperf's cpu.tick_ns times. Zero allocations.
func BenchmarkCoreTick(b *testing.B) {
	app, err := trace.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	c := New(0, DefaultConfig(), app.Gen(1), hitMem{}, idXlat{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(int64(i))
	}
}
