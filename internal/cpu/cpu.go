// Package cpu implements the trace-driven processor model of Table 2: per
// core, a 4-wide issue/retire pipeline with a 128-entry instruction window
// and 8 MSHRs, in the style of Ramulator's CPU front-end. Non-memory
// instructions retire immediately in order; loads block retirement until
// their data returns from the memory hierarchy; stores retire immediately
// once accepted (store-buffer semantics) but still occupy an MSHR on a miss.
package cpu

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"crowdram/internal/trace"
)

// Memory is the core's port into the cache hierarchy. Access returns
// accepted=false when the request cannot be tracked (retry next cycle) and
// hit=true when it was served without an LLC miss.
type Memory interface {
	Access(now int64, core int, addr uint64, write bool, done func(now int64)) (accepted, hit bool)
}

// Translator maps a core's virtual addresses to physical addresses.
type Translator interface {
	Translate(core int, vaddr uint64) uint64
}

// Config parameterizes one core.
type Config struct {
	Width  int // issue/retire width (4)
	Window int // instruction window entries (128)
	MSHRs  int // outstanding LLC misses (8)
}

// DefaultConfig returns the Table 2 core configuration.
func DefaultConfig() Config { return Config{Width: 4, Window: 128, MSHRs: 8} }

// Core is one trace-driven core.
type Core struct {
	ID   int
	Cfg  Config
	Gen  trace.Generator
	Mem  Memory
	Xlat Translator

	// Instructions are numbered in program order. The window holds numbers
	// retireSeq up to issueSeq-1, so its occupancy is their difference. Only
	// a load can be unready, so only loads are stored: loads[loadHead:
	// loadTail], indices taken & loadMask, is the in-order ring of the loads
	// in the window.
	issueSeq, retireSeq int64
	loads               []load
	loadHead, loadTail  uint
	loadMask            uint

	bubblesLeft int
	rec         trace.Record
	haveRec     bool

	outstanding int // LLC misses in flight

	// clock is the last cycle the core has executed: Tick(now) sets it,
	// Advance(n) adds n. It may lag the run loop's by up to the Horizon.
	clock int64

	// loadDone holds one completion callback per load-ring slot, built once
	// at construction so load accesses allocate nothing. Loads retire in
	// order and none retires before its callback fires, so a slot is never
	// reused while its callback is pending.
	loadDone []func(now int64)

	// Store completions outlive their window slot (stores retire
	// immediately), so they use a token pool instead: storeDone[t] is a
	// prebuilt callback releasing token t, storeMiss[t] records whether
	// that store occupies an MSHR. The pool grows on demand and each
	// token's closure is built once, so steady state allocates nothing.
	storeDone []func(now int64)
	storeMiss []bool
	storeFree []int

	// Retired counts completed instructions (reset at the end of warmup).
	Retired int64

	// StallWindow / StallMSHR count issue stalls by cause.
	StallWindow int64
	StallMSHR   int64

	// verify, set only from tests, makes every Advance check itself against
	// the Ticks it replaces.
	verify bool
}

// load is one load in the window: its sequence number, whether its data has
// returned, and whether it occupies an MSHR until then.
type load struct {
	seq         int64
	ready, miss bool
}

// New builds a core reading from gen.
func New(id int, cfg Config, gen trace.Generator, mem Memory, xlat Translator) *Core {
	slots := 1 // a power of two, so a ring index is a mask and not a divide
	for slots < cfg.Window {
		slots <<= 1
	}
	c := &Core{
		ID: id, Cfg: cfg, Gen: gen, Mem: mem, Xlat: xlat,
		loads:    make([]load, slots),
		loadMask: uint(slots - 1),
		loadDone: make([]func(now int64), slots),
		verify:   verifyAll.Load(),
	}
	for i := range c.loadDone {
		l := &c.loads[i]
		c.loadDone[i] = func(now int64) {
			c.CatchUp(now)
			if l.miss {
				l.miss = false
				c.outstanding--
			}
			l.ready = true
		}
	}
	return c
}

// ResetStats zeroes the measurement counters (end of warmup).
func (c *Core) ResetStats() {
	c.Retired, c.StallWindow, c.StallMSHR = 0, 0, 0
}

// storeToken reserves a completion token for a store access, growing the
// pool (and building the token's callback, once) if none is free.
func (c *Core) storeToken() int {
	if n := len(c.storeFree); n > 0 {
		t := c.storeFree[n-1]
		c.storeFree = c.storeFree[:n-1]
		return t
	}
	t := len(c.storeDone)
	c.storeMiss = append(c.storeMiss, false)
	c.storeDone = append(c.storeDone, func(now int64) {
		c.CatchUp(now)
		if c.storeMiss[t] {
			c.storeMiss[t] = false
			c.outstanding--
		}
		c.storeFree = append(c.storeFree, t)
	})
	return t
}

// Tick executes cycle now, after catching the core up to the cycle before.
// The clock moves first: a memory may complete an access from inside Access.
func (c *Core) Tick(now int64) {
	c.CatchUp(now - 1)
	c.clock = now
	// Retire in order, up to width, stopping at the oldest unready load;
	// the ready loads the retire pointer passes leave the ring.
	end := min(c.retireSeq+int64(c.Cfg.Width), c.issueSeq)
	for c.loadHead != c.loadTail {
		l := &c.loads[c.loadHead&c.loadMask]
		if l.seq >= end {
			break
		}
		if !l.ready {
			end = l.seq
			break
		}
		c.loadHead++
	}
	c.Retired += end - c.retireSeq
	c.retireSeq = end
	// Issue up to width instructions into the window.
	for i := 0; i < c.Cfg.Width; i++ {
		free := c.Cfg.Window - int(c.issueSeq-c.retireSeq)
		if free == 0 {
			c.StallWindow++
			return
		}
		if c.bubblesLeft > 0 {
			// A run of bubbles takes every slot it can in one step.
			n := min(c.Cfg.Width-i, free, c.bubblesLeft)
			c.issueSeq += int64(n)
			c.bubblesLeft -= n
			i += n - 1
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
		// Memory instruction.
		if c.outstanding >= c.Cfg.MSHRs {
			c.StallMSHR++
			return
		}
		addr := c.Xlat.Translate(c.ID, c.rec.Addr)
		if c.rec.Write {
			c.issueSeq++ // stores retire via the store buffer
			tok := c.storeToken()
			accepted, hit := c.Mem.Access(now, c.ID, addr, true, c.storeDone[tok])
			if !accepted {
				c.issueSeq-- // roll back the issue
				c.storeFree = append(c.storeFree, tok)
				c.StallMSHR++
				return
			}
			if !hit {
				c.outstanding++
				c.storeMiss[tok] = true
			}
		} else {
			// The ring entry is live before Access: a memory may complete
			// the load from inside the call.
			slot := c.loadTail & c.loadMask
			l := &c.loads[slot]
			*l = load{seq: c.issueSeq}
			c.loadTail++
			c.issueSeq++
			accepted, hit := c.Mem.Access(now, c.ID, addr, false, c.loadDone[slot])
			if !accepted {
				c.loadTail--
				c.issueSeq--
				c.StallMSHR++
				return
			}
			if !hit {
				c.outstanding++
				l.miss = true
			}
		}
		c.haveRec = false
	}
}

// phase looks at the ticks ahead of the core while no completion arrives: for
// how many of them it is certain to do exactly what it does on the next one,
// touching nothing outside itself (no record fetched, no access), and what
// that is. A stalled tick adds one to *stall; any other issues Width bubbles
// and, if retire is set, retires Width instructions. The count comes as room,
// the bubbles those ticks may issue between them. There are three phases:
//
//   - run: the window holds Width instructions and the oldest unready load is
//     Width or more away. It lasts while bubbles remain and the retire
//     pointer stays clear of that load.
//   - fill: the oldest instruction is an unready load. It lasts while bubbles
//     remain and the window has room for Width more.
//   - stall: nothing retires, and the window is full or the next instruction
//     is a memory instruction with every MSHR taken. It lasts until a
//     completion.
//
// Anything else (a partial retire, a record to fetch, an access to make, an
// empty window) is room 0: an ordinary Tick.
func (c *Core) phase() (room int64, retire bool, stall *int64) {
	w := int64(c.Cfg.Width)
	occ := c.issueSeq - c.retireSeq
	blocked := int64(math.MaxInt64) // from the retire pointer to the oldest unready load
	for h := c.loadHead; h != c.loadTail; h++ {
		if l := &c.loads[h&c.loadMask]; !l.ready {
			blocked = l.seq - c.retireSeq
			break
		}
	}
	free, bubbles := int64(c.Cfg.Window)-occ, int64(c.bubblesLeft)
	switch {
	case occ >= w && blocked >= w:
		return min(bubbles, blocked), true, nil
	case occ > 0 && blocked > 0: // a partial retire
	case free == 0:
		return math.MaxInt64, false, &c.StallWindow
	case bubbles == 0 && c.haveRec && c.outstanding >= c.Cfg.MSHRs:
		return math.MaxInt64, false, &c.StallMSHR
	case occ > 0:
		return min(bubbles, free), false, nil
	}
	return 0, false, nil
}

// Horizon returns how many upcoming Ticks the caller may replace by one
// Advance, provided no completion callback fires among them: the length of the
// current phase, cut short so that Retired stays below `until` (the run loop
// must see the tick that crosses an instruction target). It is math.MaxInt64
// exactly when the core is stalled.
func (c *Core) Horizon(until int64) int64 {
	room, retire, stall := c.phase()
	if stall != nil {
		return math.MaxInt64
	}
	if retire {
		room = min(room, until-1-c.Retired)
	}
	return room / int64(c.Cfg.Width)
}

// Advance is n Ticks in closed form, for n no greater than Horizon.
func (c *Core) Advance(n int64) {
	if c.verify {
		c.verifyAdvance(n)
		return
	}
	_, retire, stall := c.phase()
	c.clock += n
	if stall != nil {
		*stall += n
		return
	}
	k := n * int64(c.Cfg.Width)
	c.issueSeq += k
	c.bubblesLeft -= int(k)
	if retire {
		c.Retired += k
		c.retireSeq += k
		for c.loadHead != c.loadTail && c.loads[c.loadHead&c.loadMask].seq < c.retireSeq {
			c.loadHead++
		}
	}
}

// CatchUp brings the core through cycle now in closed form, as one Advance. A
// completion does so before it changes anything, and the run loop before it
// reads the core's counters; both stay within the Horizon the core last gave.
func (c *Core) CatchUp(now int64) {
	if now > c.clock {
		c.Advance(now - c.clock)
	}
}

// Clock returns the last cycle the core has executed.
func (c *Core) Clock() int64 { return c.clock }

// verifyAll is what New copies into Core.verify.
var verifyAll atomic.Bool

// SetVerifyAdvance turns the self-checking Advance on or off for every core
// built afterwards. It exists for tests, as ctrl.SetVerifyWake does; nothing
// else calls it.
func SetVerifyAdvance(on bool) { verifyAll.Store(on) }

// untouchable is the generator and memory port of a core being verified.
type untouchable struct{}

func (untouchable) Next() trace.Record { panic("cpu: a tick inside an Advance fetched a record") }

func (untouchable) Access(int64, int, uint64, bool, func(int64)) (bool, bool) {
	panic("cpu: a tick inside an Advance accessed memory")
}

// verifyAdvance advances a copy of the core in closed form, really ticks the
// core n times against a generator and a memory that panic when called, and
// panics unless the two agree on every counter, ring index and ring entry.
func (c *Core) verifyAdvance(n int64) {
	want := *c
	want.verify = false
	want.loads = slices.Clone(c.loads)
	want.Advance(n)
	gen, mem := c.Gen, c.Mem
	c.Gen, c.Mem = untouchable{}, untouchable{}
	for i := int64(0); i < n; i++ {
		c.Tick(c.clock + 1)
	}
	c.Gen, c.Mem = gen, mem
	if c.clock != want.clock || c.Retired != want.Retired ||
		c.StallWindow != want.StallWindow || c.StallMSHR != want.StallMSHR ||
		c.issueSeq != want.issueSeq || c.retireSeq != want.retireSeq ||
		c.loadHead != want.loadHead || c.loadTail != want.loadTail ||
		c.bubblesLeft != want.bubblesLeft || c.haveRec != want.haveRec ||
		c.outstanding != want.outstanding || !slices.Equal(c.loads, want.loads) {
		panic(fmt.Sprintf("cpu: core %d: Advance(%d) is not %d Ticks", c.ID, n, n))
	}
}
