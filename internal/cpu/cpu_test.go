package cpu

import (
	"math"
	"reflect"
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
	mem.completeAll(50) // after the tick of the cycle, as the LLC delivers
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
	mem.completeAll(50)
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
	mem.completeAll(10)
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
// core is ticked as the run loop ticks it, only when its horizon runs out, and
// a completion that comes first reaches it however far behind it is (and must
// catch it up, without carrying Retired across `until`). Its self-check is on,
// so every catch-up is re-ticked. After every step the two must agree on every
// exported counter and on every access they made: cycle, address and
// direction.
func FuzzCoreAdvance(f *testing.F) {
	// Trap (a): records fetched mid-tick, their bubbles starting one slot on.
	f.Add(slices.Concat(bubbles(1, 1), bubbles(2, 2), bubbles(3, 3), bubbles(5, 4), bubbles(7, 5)), []byte{0x0f}, byte(120), byte(3), byte(7), uint16(90))
	// Trap (b): hits completed inside Access, between rejections.
	f.Add(slices.Concat(bubbles(0, 1), bubbles(0, 2), bubbles(9, 3), bubbles(0, 4)), []byte{0x05, 0x00, 0x05, 0x0d, 0x00}, byte(0), byte(3), byte(1), uint16(40))
	// Trap (c): long runs of bubbles on either side of the target.
	f.Add(slices.Concat(bubbles(1000, 1), bubbles(997, 2), bubbles(640, 3)), []byte{0x3c, 0x0f}, byte(120), byte(3), byte(7), uint16(1501))
	// Misses out of order under a small window and two MSHRs; stores.
	f.Add(slices.Concat(bubbles(0, 1), bubbles(0, 2), []byte{4, 4, 3}, bubbles(30, 4), bubbles(0, 5), bubbles(200, 6)), []byte{0xf9, 0x09, 0x31, 0x0d, 0x00, 0x51}, byte(0), byte(1), byte(1), uint16(300))
	// Completions reaching a lagging core: a 94-cycle miss under a one-wide
	// core whose window takes 127 cycles to fill behind it, and a 10-cycle
	// miss issued in the middle of a run of bubbles the core is skipping.
	f.Add(slices.Concat(bubbles(0, 1), bubbles(1000, 2), bubbles(1000, 3)), []byte{0xf9}, byte(120), byte(0), byte(7), uint16(2000))
	f.Add(slices.Concat(bubbles(300, 1), bubbles(1000, 2), bubbles(1000, 3)), []byte{0x19}, byte(120), byte(3), byte(7), uint16(2000))
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
		for now, steps, seen := int64(0), 0, 0; now < 6_000; steps++ {
			stop := int64(math.MaxInt64)
			if c.Retired < target {
				stop = target
			}
			due := now + min(c.Horizon(stop), 6_000) + 1
			at := min(due, mem.next(), 6_000)
			before := c.Retired
			if at == due {
				c.Tick(at)
			}
			mem.deliver(at)
			if at < due && before < target && c.Retired >= target {
				t.Fatalf("cycle %d: a completion caught the core up from %d, carrying Retired %d -> %d across %d", at, now, before, c.Retired, target)
			}
			c.CatchUp(at) // the end of the run, when nothing reached the core
			for i := now + 1; i <= at; i++ {
				ref.Tick(i)
				refMem.deliver(i)
			}
			if c.Clock() != at || c.Retired != ref.Retired || c.Cycles != ref.Cycles ||
				c.StallWindow != ref.StallWindow || c.StallMSHR != ref.StallMSHR {
				t.Fatalf("cycle %d, step %d (%d cycles): clock/retired/cycles/stallWindow/stallMSHR = %d/%d/%d/%d/%d, reference %d/%d/%d/%d",
					at, steps, at-now, c.Clock(), c.Retired, c.Cycles, c.StallWindow, c.StallMSHR,
					ref.Retired, ref.Cycles, ref.StallWindow, ref.StallMSHR)
			}
			now = at
			if !slices.Equal(mem.log[seen:], refMem.log[seen:]) {
				t.Fatalf("cycle %d: accesses %v, reference %v", now, mem.log[seen:], refMem.log[seen:])
			}
			seen = len(mem.log)
		}
	})
}

// state is everything about a core that a tick or a completion can change.
func state(c *Core) []any {
	return []any{c.clock, c.Retired, c.Cycles, c.StallWindow, c.StallMSHR,
		c.issueSeq, c.retireSeq, c.loadHead, c.loadTail, slices.Clone(c.loads),
		c.bubblesLeft, c.rec, c.haveRec, c.outstanding, slices.Clone(c.storeMiss), slices.Clone(c.storeFree)}
}

// TestCompletionCatchesUp: a completion that reaches a core k cycles behind
// is k Ticks followed by the completion, in each phase a core can be left
// behind in — a run of bubbles past an outstanding load or store, a window
// filling behind one, a stall — for every k its horizon allows.
func TestCompletionCatchesUp(t *testing.T) {
	cases := []struct {
		name string
		recs []trace.Record
		warm int64 // cycles ticked before the lazy core is left behind
	}{
		{"run past a load", []trace.Record{{Bubbles: 300, Addr: 64}, {Bubbles: 1000, Addr: 128}}, 80},
		{"run past a store", []trace.Record{{Bubbles: 300, Addr: 64, Write: true}, {Bubbles: 1000, Addr: 128}}, 80},
		{"fill", []trace.Record{{Bubbles: 0, Addr: 64}, {Bubbles: 1000, Addr: 128}}, 2},
		{"stall", []trace.Record{{Bubbles: 0, Addr: 64}, {Bubbles: 1000, Addr: 128}}, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two cores ticked alike through warm; the lazy one checks its
			// catch-up against the Ticks it stands for.
			pair := func() (eager, lazy *Core, eagerMem, lazyMem *scriptMem) {
				eagerMem, lazyMem = &scriptMem{accept: true}, &scriptMem{accept: true}
				eager = New(0, DefaultConfig(), &scriptGen{recs: tc.recs}, eagerMem, idXlat{})
				lazy = New(0, DefaultConfig(), &scriptGen{recs: tc.recs}, lazyMem, idXlat{})
				lazy.verify = true
				for now := int64(1); now <= tc.warm; now++ {
					eager.Tick(now)
					lazy.Tick(now)
				}
				return
			}
			_, probe, _, probeMem := pair()
			h := min(probe.Horizon(math.MaxInt64), 64)
			if len(probeMem.pending) == 0 || h < 1 {
				t.Fatalf("%d accesses outstanding, horizon %d: nothing to leave the core behind for", len(probeMem.pending), h)
			}
			for _, k := range []int64{1, 2, 3, 8, 21, h} {
				if k > h {
					continue
				}
				eager, lazy, eagerMem, lazyMem := pair()
				for now := tc.warm + 1; now <= tc.warm+k; now++ {
					eager.Tick(now)
				}
				eagerMem.completeAll(tc.warm + k)
				lazyMem.completeAll(tc.warm + k)
				for now := tc.warm + k + 1; now <= tc.warm+k+200; now++ {
					if !reflect.DeepEqual(state(lazy), state(eager)) {
						t.Fatalf("%d behind, cycle %d: lazy %v, ticked %v", k, now-1, state(lazy), state(eager))
					}
					eager.Tick(now)
					lazy.Tick(now)
				}
			}
		})
	}
}

// memFunc is a Memory made of a function.
type memFunc func(now int64, core int, addr uint64, write bool, done func(int64)) (bool, bool)

func (f memFunc) Access(now int64, core int, addr uint64, write bool, done func(int64)) (bool, bool) {
	return f(now, core, addr, write, done)
}

// TestCompletionInsideAccess: a core ticked only when its horizon runs out
// (the catch-up inside Tick), under a memory that completes every access from
// inside Access, finds its clock already at the present there and stays the
// core that is ticked every cycle.
func TestCompletionInsideAccess(t *testing.T) {
	recs := []trace.Record{{Bubbles: 37, Addr: 64}, {Bubbles: 5, Addr: 128, Write: true}, {Bubbles: 400, Addr: 192}, {Bubbles: 90, Addr: 256}}
	var lazy *Core
	hits := 0
	inside := memFunc(func(now int64, _ int, _ uint64, _ bool, done func(int64)) (bool, bool) {
		if lazy.Clock() != now {
			t.Fatalf("Access at cycle %d found the clock at %d", now, lazy.Clock())
		}
		hits++
		done(now)
		return true, true
	})
	eager := New(0, DefaultConfig(), &scriptGen{recs: recs}, hitMem{}, idXlat{})
	lazy = New(0, DefaultConfig(), &scriptGen{recs: recs}, inside, idXlat{})
	lazy.verify = true
	for now, lazyTicks := int64(0), 0; now < 2_000; lazyTicks++ {
		due := lazy.Clock() + lazy.Horizon(math.MaxInt64) + 1
		for ; now < due; now++ {
			eager.Tick(now + 1)
		}
		lazy.Tick(due)
		if !reflect.DeepEqual(state(lazy), state(eager)) {
			t.Fatalf("cycle %d, after %d lazy ticks: lazy %v, ticked %v", now, lazyTicks, state(lazy), state(eager))
		}
	}
	if hits < 4 {
		t.Fatalf("%d accesses: the script never reached memory", hits)
	}
}

// BenchmarkCoreCompletionBehind is a store completion reaching a core 64
// cycles into a run of bubbles it is being left behind in, then its Horizon;
// then the ticks that end the run, issue the next store and start the next
// run. Zero allocations.
func BenchmarkCoreCompletionBehind(b *testing.B) {
	var pending func(int64)
	mem := memFunc(func(_ int64, _ int, _ uint64, _ bool, done func(int64)) (bool, bool) {
		pending = done
		return true, false
	})
	c := New(0, DefaultConfig(), &scriptGen{recs: []trace.Record{{Bubbles: 1000, Addr: 64, Write: true}}}, mem, idXlat{})
	next := func() { // to 64 cycles into the run after the next store
		for pending = nil; pending == nil || c.Horizon(math.MaxInt64) < 64; {
			c.Tick(c.Clock() + c.Horizon(math.MaxInt64) + 1)
		}
	}
	next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending(c.Clock() + 64)
		if c.Horizon(math.MaxInt64) <= 0 {
			b.Fatal("the completion left the run")
		}
		next()
	}
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
