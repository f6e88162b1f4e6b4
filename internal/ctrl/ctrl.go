// Package ctrl implements the memory controller of Table 2: per-channel
// 64-entry read/write request queues, FR-FCFS-Cap scheduling [81], a
// timeout-based row-buffer policy (75 ns), all-bank refresh management, and
// the hook points where a core.Mechanism (CROW-cache, CROW-ref, TL-DRAM,
// or the baseline) decides how each row activation is performed.
package ctrl

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/metrics"
	"crowdram/internal/timeq"
)

// ReqType distinguishes reads from writes.
type ReqType int

// Request types.
const (
	Read ReqType = iota
	Write
)

// Request is one cache-line-sized memory request.
//
// Requests obtained from Controller.GetRequest are recycled internally once
// complete (after Done fires for reads, after the WR issues for writes), so
// the steady-state read path allocates nothing. Callers must not retain a
// pooled request past its completion.
type Request struct {
	Type   ReqType
	Addr   dram.Addr
	Core   int
	Line   uint64 // upstream line address, carried through to Done
	Arrive int64  // DRAM cycle the request entered the controller
	Done   func(now int64, line uint64)
	IsPref bool     // prefetch: scheduled behind demand requests
	next   *Request // freelist link
	// sub and bank name Addr's row buffer (dram.Channel.SubIndex) and bank
	// (rank*Banks+bank). The enqueue computes them, once, for everything a
	// scheduling pass asks about the request; callers fill Addr before it.
	sub, bank int
}

// Config parameterizes one controller instance.
type Config struct {
	ChannelID int
	Geo       dram.Geometry
	T         dram.Timing
	ReadQ     int // read queue capacity (64)
	WriteQ    int // write queue capacity (64)
	Cap       int // FR-FCFS-Cap: row hits served per activation
	TimeoutNs float64
	MASA      bool // SALP-MASA subarray-level parallelism

	// MaxPostpone allows deferring up to this many due refreshes while
	// demand requests are queued (JEDEC permits 8), catching up when the
	// rank idles — elastic refresh [107].
	MaxPostpone int

	// Scheduler, RowPolicy, and Refresh name the controller policies to
	// compose; policy.go says what each name means. Empty fields resolve to
	// the Table 2 controller: "frfcfs-cap", "timeout", and "allbank".
	Scheduler string
	RowPolicy string
	Refresh   string

	// Features forwards standard-specific device behaviours to the channel.
	Features dram.Features
}

// DefaultConfig returns the Table 2 controller configuration.
func DefaultConfig(channel int, g dram.Geometry, t dram.Timing) Config {
	return Config{
		ChannelID: channel,
		Geo:       g,
		T:         t,
		ReadQ:     64,
		WriteQ:    64,
		Cap:       16,
		TimeoutNs: 75,
	}
}

// Stats aggregates controller-level statistics.
type Stats struct {
	ReadsServed    int64
	WritesServed   int64
	ReadLatencySum int64 // in DRAM cycles, arrival to data
	RowHits        int64
	RowMisses      int64 // activations performed for requests
	RowConflicts   int64 // precharges forced by a conflicting request
	Forwarded      int64 // reads served from the write queue
	Refreshes      int64
	TimeoutCloses  int64
	MechCopies     int64 // mechanism-initiated ACT-c operations
}

// AvgReadLatencyNs returns the mean read latency in nanoseconds, given the
// command-clock cycle time of the standard the controller ran.
func (s *Stats) AvgReadLatencyNs(cycleNs float64) float64 {
	if s.ReadsServed == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.ReadsServed) * cycleNs
}

// SchedKind classifies one scheduler decision for observers.
type SchedKind uint8

// Scheduler decision kinds.
const (
	// SchedRowHit is a column command served from an open row.
	SchedRowHit SchedKind = iota
	// SchedRowMiss is an activation performed for a request.
	SchedRowMiss
	// SchedRowConflict is a precharge forced by a conflicting request (or
	// by the FR-FCFS hit cap recycling the row).
	SchedRowConflict
	// SchedForward is a read served from the write queue.
	SchedForward
	// SchedRefresh is a REF or REFpb issue.
	SchedRefresh
	// SchedTimeoutClose is a timeout-policy precharge of an idle row.
	SchedTimeoutClose
	// SchedMechCopy is a mechanism-initiated ACT-c issue.
	SchedMechCopy
	// SchedDrainEnter and SchedDrainExit bracket write-drain mode.
	SchedDrainEnter
	SchedDrainExit
)

var schedNames = [...]string{
	"row-hit", "row-miss", "row-conflict", "forward", "refresh",
	"timeout-close", "mech-copy", "drain-enter", "drain-exit",
}

func (k SchedKind) String() string { return schedNames[k] }

// SchedEvent is one scheduler decision, with the queue depths at decision
// time — what a tracer needs to attribute command-stream behaviour to
// controller policy rather than device timing.
type SchedEvent struct {
	Kind   SchedKind
	Cycle  int64
	Addr   dram.Addr // zero-valued for drain transitions
	ReadQ  int
	WriteQ int
}

// SchedObserver receives every scheduler decision of one controller, in
// decision order. Implementations must be cheap: they run on the tick path.
type SchedObserver interface {
	OnSched(e SchedEvent)
}

// copyState tracks a mechanism-initiated ACT-c in flight.
type copyState struct {
	op      core.CopyOp
	actAt   int64
	pending bool // an op was picked up from the mechanism and is not finished
	active  bool // its activation has issued
}

// subSched is what the scheduler keeps for one row buffer.
type subSched struct {
	hits          int32 // column commands served from the current activation (FR-FCFS-Cap)
	reads, writes int32 // requests queued for the row buffer, in readQ and in writeQ
	// blocked, when equal to Controller.gen, says a readiness test on the
	// row buffer's PRE or ACT failed earlier in this scheduling pass: no command
	// has issued since, so any other request's test on it would read the same
	// device cycle, fail the same way and leave nextReady where it is.
	blocked uint64
}

// Controller schedules one channel.
type Controller struct {
	Cfg  Config
	Dev  *dram.Channel
	Mech core.Mechanism

	readQ, writeQ []*Request
	draining      bool

	// The scheduler's own state per row buffer (at the channel's SubIndex) and
	// per bank (at rank*Banks+bank): flat slices, a few KiB of contiguous memory
	// a pass reads once per queued request. gen numbers the scheduling passes.
	subs       []subSched
	bankQueued []int32 // requests queued for the bank, both queues
	gen        uint64

	// Refresh: one target comes due every refIv cycles, so rank r owes
	// now/refIv - refDone[r] refreshes at cycle now (refTarget).
	refIv   int64
	refDone []int // refreshes issued, per rank
	refBank []int // next bank to refresh per rank (per-bank mode)

	pendingCopy copyState

	// What the Config's policy names mean (resolvePolicies, policy.go).
	inOrder   bool  // scheduler: serve the preferred queue's head only
	effCap    int32 // scheduler: row hits served per activation, 0 = unlimited
	closeIdle bool  // row policy: close rows no queued request needs...
	timeout   int64 // ...once idle this many cycles
	perBank   bool  // refresh: bank-granular (REFpb/REFsb), not REFab

	free *Request // request freelist (see GetRequest)

	// passAt is the earliest DRAM cycle at which a scheduling pass can do
	// anything — issue a command or change controller state. A pass that issues
	// nothing sets it from the readiness tests that failed (nextReady); an
	// issued command, or a pass with a side effect of its own (poll), sets it
	// to the next cycle; an enqueue pulls it back to the enqueue cycle. wake is
	// the earlier of passAt and the next completion: Tick returns at once
	// before it, and between the two fires completions only.
	wake, passAt int64
	nextReady    int64
	poll         bool
	// verifyWake, set only from tests, makes every shortcut of the wake
	// contract and of the scheduling pass check itself: a skipped pass is
	// re-run and must be a no-op, a request skipped on a blocked mark is put
	// through progress the long way, and every 256th pass audits the queued
	// counts and the open list.
	verifyWake bool

	events timeq.Queue[*Request] // read completions, due at At

	// ReadLatency tracks the distribution of read latencies in DRAM
	// cycles (arrival to data), in logarithmic buckets.
	ReadLatency *metrics.Histogram

	// Obs, when non-nil, receives every scheduler decision (row hits,
	// conflicts, refreshes, drain transitions) for tracing and telemetry.
	Obs SchedObserver

	Stats Stats
}

// verifyWakeAll is what New copies into Controller.verifyWake.
var verifyWakeAll atomic.Bool

// SetVerifyWake turns the self-checking skip (Controller.verifyWake) on or
// off for every controller built afterwards. It exists for tests of the
// packages that build controllers through internal/sim; nothing else calls it.
func SetVerifyWake(on bool) { verifyWakeAll.Store(on) }

// sched reports one scheduler decision to the attached observer. Call sites
// guard with `c.Obs != nil` so the disabled path costs one comparison.
func (c *Controller) sched(k SchedKind, a dram.Addr, now int64) {
	c.Obs.OnSched(SchedEvent{
		Kind: k, Cycle: now, Addr: a,
		ReadQ: len(c.readQ), WriteQ: len(c.writeQ),
	})
}

// New builds a controller over a fresh device channel. Unknown policy names
// panic (see resolvePolicies).
func New(cfg Config, mech core.Mechanism) *Controller {
	dev := dram.NewChannel(cfg.Geo, cfg.T)
	dev.MASA = cfg.MASA
	dev.Features = cfg.Features
	c := &Controller{
		Cfg:         cfg,
		Dev:         dev,
		Mech:        mech,
		subs:        make([]subSched, dev.SubIndex(dram.Addr{Rank: cfg.Geo.Ranks})),
		bankQueued:  make([]int32, cfg.Geo.Ranks*cfg.Geo.Banks),
		ReadLatency: metrics.NewHistogram(),
	}
	c.resolvePolicies()
	// The mechanism's refresh scale is fixed before New (CROW-ref loads its
	// profile when built); a bank-granular target comes due Banks times as often.
	targets := int64(1)
	if c.perBank {
		targets = int64(cfg.Geo.Banks)
	}
	c.refIv, c.refDone, c.refBank = 1<<62, make([]int, cfg.Geo.Ranks), make([]int, cfg.Geo.Ranks)
	if mult := mech.RefreshMultiplier(); mult > 0 {
		c.refIv = max(int64(cfg.T.REFI)*int64(mult)/(targets*int64(max(mech.RefreshDivisor(), 1))), 1)
	}
	c.verifyWake = verifyWakeAll.Load()
	return c
}

// GetRequest returns a zeroed request from the controller's freelist (or a
// fresh one). Requests complete back into the pool automatically; a caller
// whose enqueue was rejected returns the request with PutRequest.
func (c *Controller) GetRequest() *Request {
	r := c.free
	if r == nil {
		return &Request{}
	}
	c.free = r.next
	r.next = nil
	return r
}

// PutRequest recycles a request that will not be enqueued after all.
func (c *Controller) PutRequest(r *Request) {
	*r = Request{next: c.free}
	c.free = r
}

// Idle reports whether the controller has no queued work or in-flight
// events (used to drain simulations).
func (c *Controller) Idle() bool {
	return len(c.readQ) == 0 && len(c.writeQ) == 0 && len(c.events) == 0 && !c.pendingCopy.pending
}

// EnqueueRead accepts a read request, or returns false if the queue is full.
// Reads matching a queued write are forwarded and complete immediately.
func (c *Controller) EnqueueRead(r *Request, now int64) bool {
	c.index(r)
	if c.subs[r.sub].writes > 0 {
		for _, w := range c.writeQ {
			if w.Addr == r.Addr {
				c.Stats.Forwarded++
				c.Stats.ReadsServed++
				if c.Obs != nil {
					c.sched(SchedForward, r.Addr, now)
				}
				c.events.Push(now+1, r)
				c.wake = min(c.wake, now+1)
				return true
			}
		}
	}
	if len(c.readQ) >= c.Cfg.ReadQ {
		return false
	}
	c.enqueue(&c.readQ, r, now)
	return true
}

// EnqueueWrite accepts a write request, or returns false if the queue is
// full. Writes complete (from the requester's view) on acceptance.
func (c *Controller) EnqueueWrite(r *Request, now int64) bool {
	if len(c.writeQ) >= c.Cfg.WriteQ {
		return false
	}
	c.index(r)
	c.enqueue(&c.writeQ, r, now)
	if r.Done != nil {
		r.Done(now, r.Line)
	}
	return true
}

// index names the request's row buffer and bank.
func (c *Controller) index(r *Request) {
	r.sub = c.Dev.SubIndex(r.Addr)
	r.bank = r.Addr.Rank*c.Cfg.Geo.Banks + r.Addr.Bank
}

// count is the queued-request counter of row buffer i for queue q.
func (c *Controller) count(q *[]*Request, i int) *int32 {
	if q == &c.writeQ {
		return &c.subs[i].writes
	}
	return &c.subs[i].reads
}

// enqueue appends an indexed request to q and pulls the next pass back to now.
func (c *Controller) enqueue(q *[]*Request, r *Request, now int64) {
	r.Arrive = now
	*q = append(*q, r)
	*c.count(q, r.sub)++
	c.bankQueued[r.bank]++
	c.passAt = min(c.passAt, now)
	c.wake = min(c.wake, now)
}

// dequeue removes (*q)[i], whose column command has just issued. The counts
// come off before PutRequest, which zeroes the request.
func (c *Controller) dequeue(q *[]*Request, i int) {
	r := (*q)[i]
	*q = append((*q)[:i], (*q)[i+1:]...)
	*c.count(q, r.sub)--
	c.bankQueued[r.bank]--
	if r.Type == Write {
		c.PutRequest(r) // reads recycle at completion-event pop
	}
}

// NextEvent returns the earliest DRAM cycle after `now` at which Tick could
// fire a completion, issue a command, or change state: the wake-up cycle. The
// run loop skips the gap (dram.Horizon when nothing is in flight).
func (c *Controller) NextEvent(now int64) int64 { return max(c.wake, now+1) }

// Tick advances the controller by one DRAM cycle: it brings the device's
// per-cycle accounting up to `now`, fires every completion event due, in heap
// order, recycling each finished request after its callback returns, then — if
// the pass cycle has come, which a callback's enqueue can make it — runs one
// scheduling pass (at most one command) and sets the next one. Before the
// wake-up cycle it returns at once, inlined into the caller: a sleeping
// channel costs one comparison, not a call.
func (c *Controller) Tick(now int64) {
	if now >= c.wake || c.verifyWake {
		c.tick(now)
	}
}

// tick is Tick past its inlined test; under verifyWake it sees every cycle.
func (c *Controller) tick(now int64) {
	if now < c.wake {
		if c.verifyWake {
			c.verifyNoPass(now)
		}
		return
	}
	c.Dev.Tick(now)
	for len(c.events) > 0 && c.events[0].At <= now {
		r := c.events.Pop()
		if r.Done != nil {
			r.Done(now, r.Line)
		}
		c.PutRequest(r)
	}
	switch {
	case now < c.passAt:
		// Woken by a completion alone, which changes nothing a pass looks at.
		if c.verifyWake {
			c.verifyNoPass(now)
		}
	case c.schedulePass(now) || c.poll:
		c.passAt = now + 1
	default:
		c.passAt = c.nextReady
	}
	c.wake = c.passAt
	if len(c.events) > 0 {
		c.wake = min(c.wake, c.events[0].At)
	}
}

// ready is the one readiness test of the scheduling pass: it reports whether
// cycle `at` — a device Ready* answer or a controller deadline — has been
// reached, and when it has not, keeps the smallest such cycle as the pass's
// wake-up candidate. Every test that depends on the cycle number goes through
// it; everything else a pass looks at changes only with a command or an
// enqueue, so a pass that issued nothing would repeat itself exactly until
// the smallest failed cycle.
func (c *Controller) ready(at, now int64) bool {
	if now >= at {
		return true
	}
	c.nextReady = min(c.nextReady, at)
	return false
}

// verifyNoPass checks a cycle the wake contract gave no scheduling pass: no
// completion may be left due, and re-running the pass must be the no-op the
// contract promised — no command, no side effect, and the same next pass cycle
// again. It panics otherwise.
func (c *Controller) verifyNoPass(now int64) {
	if len(c.events) > 0 && c.events[0].At <= now {
		panic(fmt.Sprintf("ctrl: ch%d slept through cycle %d (wake %d) with a completion due at %d",
			c.Cfg.ChannelID, now, c.wake, c.events[0].At))
	}
	draining := c.draining
	if issued := c.schedulePass(now); issued || c.poll || draining != c.draining || c.nextReady != c.passAt {
		panic(fmt.Sprintf("ctrl: ch%d skipped the pass of cycle %d (next pass %d) but it was not a no-op: issued=%v poll=%v drain %v->%v next pass %d",
			c.Cfg.ChannelID, now, c.passAt, issued, c.poll, draining, c.draining, c.nextReady))
	}
}

// schedulePass runs refresh, mechanism-initiated copies, drain-mode
// transitions, the scheduler's passes, and the idle-row policy, in that order.
// At most one command issues; it reports whether one did.
func (c *Controller) schedulePass(now int64) bool {
	c.nextReady, c.poll = dram.Horizon, false
	c.gen++
	if c.verifyWake && c.gen%256 == 0 {
		c.audit()
	}
	if c.serviceRefresh(now) {
		return true
	}
	if c.serviceMechCopy(now) {
		return true
	}

	c.updateDrainMode(now)
	q, other := &c.readQ, &c.writeQ
	if c.draining || len(c.readQ) == 0 {
		q, other = &c.writeQ, &c.readQ
	}
	var issued bool
	if c.inOrder {
		issued = c.scheduleInOrder(q, now)
	} else {
		// FR-FCFS: row hits, then the oldest request that can progress. If the
		// preferred queue could not issue, let the other queue's row hits
		// through (writes never starve reads and vice versa).
		issued = c.scheduleHits(q, now) || c.scheduleOldest(q, now) || c.scheduleHits(other, now)
	}
	return issued || (c.closeIdle && c.serviceTimeout(now))
}

func (c *Controller) updateDrainMode(now int64) {
	hi := c.Cfg.WriteQ * 3 / 4
	lo := c.Cfg.WriteQ / 4
	if !c.draining && (len(c.writeQ) >= hi || (len(c.readQ) == 0 && len(c.writeQ) > 0)) {
		c.draining = true
		if c.Obs != nil {
			c.sched(SchedDrainEnter, dram.Addr{Channel: c.Cfg.ChannelID}, now)
		}
	}
	if c.draining && (len(c.writeQ) <= lo || len(c.writeQ) == 0) && len(c.readQ) > 0 {
		c.draining = false
		if c.Obs != nil {
			c.sched(SchedDrainExit, dram.Addr{Channel: c.Cfg.ChannelID}, now)
		}
	}
}

// refTarget is the one refresh rule for rank r at cycle now: the next refresh
// covers banks [lo, hi) (the rank for REFab, the next bank in round-robin order
// for REFpb/REFsb), owed refreshes have come due and not issued, and due says
// the target may be postponed no longer: owed is past MaxPostpone, or past
// cmp.Or(MaxPostpone, Banks) for bank-granular refresh. The next due cycle goes
// through ready.
func (c *Controller) refTarget(r int, now int64) (lo, hi, owed int, due bool) {
	k := now / c.refIv
	c.ready((k+1)*c.refIv, now)
	owed = int(k) - c.refDone[r]
	if !c.perBank {
		return 0, c.Cfg.Geo.Banks, owed, owed > c.Cfg.MaxPostpone
	}
	lo = c.refBank[r]
	return lo, lo + 1, owed, owed > cmp.Or(c.Cfg.MaxPostpone, c.Cfg.Geo.Banks)
}

// serviceRefresh issues one refresh of the first rank whose target is owed and
// not postponed; it returns true if a command issued. Elastic refresh [107]
// defers it while demand is queued for the rank (within MaxPostpone) or for the
// target (until it is due), so it lands in a gap instead of stalling busy banks.
func (c *Controller) serviceRefresh(now int64) bool {
	banks := c.Cfg.Geo.Banks
	for r := 0; r < c.Cfg.Geo.Ranks; r++ {
		lo, hi, owed, due := c.refTarget(r, now)
		if owed == 0 || owed <= c.Cfg.MaxPostpone && c.hasDemand(r, 0, banks) || !due && c.hasDemand(r, lo, hi) {
			continue
		}
		if !c.ready(c.Dev.ReadyRefresh(r, lo, hi), now) {
			// Close one of the target's open rows so the refresh can issue;
			// other banks keep serving. Either way the scan stops at this rank.
			return c.closeOne(dram.Addr{Rank: r, Bank: lo}, dram.Addr{Rank: r, Bank: hi}, now)
		}
		var start int
		if c.perBank {
			start = c.Dev.REFpb(r, lo, now)
		} else {
			start = c.Dev.REF(r, now)
		}
		c.Stats.Refreshes++
		if c.Obs != nil {
			c.sched(SchedRefresh, dram.Addr{Channel: c.Cfg.ChannelID, Rank: r, Bank: lo}, now)
		}
		c.Mech.OnRefreshRows(c.Cfg.ChannelID, r, lo, hi, start, c.Cfg.T.RowsPerRef, now)
		c.refBank[r] = hi % banks
		c.refDone[r]++
		return true
	}
	return false
}

// closeOne precharges the first open row, in (rank, bank, subarray) order,
// from address `from` up to but not including `to`, that can be precharged this
// cycle; it reports whether one could.
func (c *Controller) closeOne(from, to dram.Addr, now int64) bool {
	lo, hi := c.Dev.SubIndex(from), c.Dev.SubIndex(to)
	for _, i := range c.Dev.Open() {
		if i >= lo && i < hi && c.ready(c.Dev.ReadyPREAt(i), now) {
			c.preAndNotify(c.openAddr(i), now)
			return true
		}
	}
	return false
}

// openAddr is the address of the open row of row buffer i, for the one row a
// walk of the open list precharges.
func (c *Controller) openAddr(i int) dram.Addr {
	a := c.Dev.OpenAddrAt(i)
	a.Channel = c.Cfg.ChannelID
	return a
}

// fenced reports whether bank b of rank r is inside a refresh target that may
// be postponed no longer: a demand activation there would hold the refresh
// back, so it waits until the refresh has issued.
func (c *Controller) fenced(r, b int, now int64) bool {
	lo, hi, _, due := c.refTarget(r, now)
	return due && b >= lo && b < hi
}

// hasDemand reports whether any queued request targets banks [lo, hi) of rank r.
func (c *Controller) hasDemand(r, lo, hi int) bool {
	banks := c.bankQueued[r*c.Cfg.Geo.Banks+lo : r*c.Cfg.Geo.Banks+hi]
	return slices.ContainsFunc(banks, func(n int32) bool { return n > 0 })
}

// serviceMechCopy executes mechanism-initiated ACT-c operations (RowHammer
// victim duplication, dynamic CROW-ref remaps). Picking an op up and dropping
// one both change what the next cycle's pass does without a command issuing,
// so they ask for that cycle (poll).
func (c *Controller) serviceMechCopy(now int64) bool {
	pc := &c.pendingCopy
	if !pc.pending {
		if op, found := c.Mech.NextCopy(c.Cfg.ChannelID, now); found {
			*pc = copyState{op: op, pending: true}
			c.poll = true
		}
	}
	if !pc.pending {
		return false
	}
	a := pc.op.Addr
	if !pc.active {
		if open := c.Dev.OpenRow(a); open >= 0 {
			victim := dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: open}
			if c.ready(c.Dev.ReadyPRE(victim), now) {
				c.preAndNotify(victim, now)
				return true
			}
			return false
		}
		kind := pc.op.Kind
		if kind == dram.ActSingle && pc.op.Timing == (dram.ActTimings{}) {
			pc.op.Timing = c.Cfg.T.Base()
		}
		if c.ready(c.Dev.ReadyACT(a), now) {
			copyRow := pc.op.CopyRow
			if kind == dram.ActSingle {
				copyRow = -1
			}
			c.Dev.ACT(a, now, kind, pc.op.Timing, copyRow)
			pc.active = true
			pc.actAt = now
			c.Stats.MechCopies++
			if c.Obs != nil {
				c.sched(SchedMechCopy, a, now)
			}
			return true
		}
		return false
	}
	// Copy activation in progress: precharge once fully restored. If the
	// demand scheduler stole the bank meanwhile (a row conflict can legally
	// precharge the copy row between tRAS and full restoration, notifying
	// the mechanism through its own preAndNotify), the copy is already as
	// done as it will get — waiting on ReadyPRE for a closed bank would wedge
	// the mechanism-copy pipeline for the rest of the run.
	if c.Dev.OpenRow(a) != a.Row {
		*pc = copyState{}
		c.poll = true
		return false
	}
	if c.ready(pc.actAt+int64(pc.op.Timing.RASFull), now) && c.ready(c.Dev.ReadyPRE(a), now) {
		c.preAndNotify(a, now)
		*pc = copyState{}
		return true
	}
	return false
}

// preAndNotify precharges the row buffer holding a.Row and informs the
// mechanism of the restore outcome.
func (c *Controller) preAndNotify(a dram.Addr, now int64) {
	i := c.Dev.SubIndex(a)
	open := c.Dev.OpenRowAt(i)
	full := c.Dev.PRE(a, now)
	c.Mech.OnPrecharge(a, open, full, now)
	c.subs[i].hits = 0
}

// scheduleHits serves the oldest row-buffer hit under the per-activation
// cap, demand requests before prefetches.
func (c *Controller) scheduleHits(q *[]*Request, now int64) bool {
	for _, pref := range [...]bool{false, true} {
		mixed := false
		for i, r := range *q {
			if r.IsPref != pref {
				mixed = true
				continue
			}
			if c.Dev.OpenRowAt(r.sub) != r.Addr.Row {
				continue
			}
			if c.effCap > 0 && c.subs[r.sub].hits >= c.effCap {
				continue
			}
			if c.serveHit(q, i, now) {
				return true
			}
		}
		if !mixed {
			break // no request of the other kind: its sub-pass would skip them all
		}
	}
	return false
}

// serveHit issues the column command of (*q)[i], whose row is open, and takes
// the request off the queue; it reports whether the command could issue.
func (c *Controller) serveHit(q *[]*Request, i int, now int64) bool {
	r := (*q)[i]
	if !c.issueColumn(r, now) {
		return false
	}
	c.subs[r.sub].hits++
	c.Stats.RowHits++
	if c.Obs != nil {
		c.sched(SchedRowHit, r.Addr, now)
	}
	c.dequeue(q, i)
	return true
}

// scheduleOldest progresses the oldest request that can make progress:
// precharge a conflicting row, or activate a closed one.
func (c *Controller) scheduleOldest(q *[]*Request, now int64) bool {
	for _, pref := range [...]bool{false, true} {
		mixed := false
		for _, r := range *q {
			if r.IsPref != pref {
				mixed = true
			} else if c.progress(r, now) {
				return true
			}
		}
		if !mixed {
			break // as in scheduleHits
		}
	}
	return false
}

// scheduleInOrder is the FCFS pass: only the oldest queued request may
// issue. A row hit at the head is served in place; anything else progresses
// through the usual precharge/activate path.
func (c *Controller) scheduleInOrder(q *[]*Request, now int64) bool {
	if len(*q) == 0 {
		return false
	}
	r := (*q)[0]
	if c.Dev.OpenRowAt(r.sub) == r.Addr.Row {
		return c.serveHit(q, 0, now)
	}
	return c.progress(r, now)
}

// progress tries to issue the next command the request needs; returns true
// if a command was issued. A request whose row buffer an older request of this
// pass already found blocked is not examined again.
func (c *Controller) progress(r *Request, now int64) bool {
	if c.subs[r.sub].blocked != c.gen {
		return c.advance(r, now)
	}
	if before := c.nextReady; c.verifyWake && (c.advance(r, now) || c.nextReady != before) {
		panic(fmt.Sprintf("ctrl: ch%d cycle %d: a request to row %d of r%d/b%d was skipped as blocked, but examining it issued a command or moved the next pass %d -> %d",
			c.Cfg.ChannelID, now, r.Addr.Row, r.Addr.Rank, r.Addr.Bank, before, c.nextReady))
	}
	return false
}

// advance is progress for a request not known to be blocked.
func (c *Controller) advance(r *Request, now int64) bool {
	a, i := r.Addr, r.sub
	open := c.Dev.OpenRowAt(i)
	if open == a.Row {
		// Row open but over the hit cap: FR-FCFS-Cap treats it as a conflict
		// and recycles the row [81]. Under the cap it is a hit waiting for its
		// column command, and says nothing about the row buffer: no mark.
		return c.effCap > 0 && c.subs[i].hits >= c.effCap && c.evict(a, i, now)
	}
	if open >= 0 {
		// Conflict in this row buffer.
		return c.evict(dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: open}, i, now)
	}
	// Row buffer closed: activate, unless a refresh that may wait no longer
	// fences the bank. The device is asked before the mechanism, so a plan is
	// made only on the cycle its ACT issues.
	if c.fenced(a.Rank, a.Bank, now) || !c.ready(c.Dev.ReadyACT(a), now) {
		c.subs[i].blocked = c.gen
		return false
	}
	d := c.Mech.PlanActivate(a, now)
	if d.RestoreFirst {
		// Under MASA a shared-table restore row may lie in another row buffer,
		// not ready when this one is: a failed test there marks nothing.
		ra := dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: d.RestoreRow}
		if !c.ready(c.Dev.ReadyACT(ra), now) {
			return false
		}
		c.Dev.ACT(ra, now, dram.ActTwo, d.RestoreTiming, d.RestoreCopyRow)
		c.Mech.OnActivate(ra, core.ActDecision{
			Kind: dram.ActTwo, CopyRow: d.RestoreCopyRow,
			Timing: d.RestoreTiming, RestoreFirst: true,
			RestoreCopyRow: d.RestoreCopyRow,
		}, now)
		c.subs[c.Dev.SubIndex(ra)].hits = 0
		return true
	}
	copyRow := d.CopyRow
	if d.Kind == dram.ActSingle {
		// Single-row activations carry no copy-row operand. (TL-DRAM
		// reuses CopyRow to name its near row, but that is mechanism
		// bookkeeping, not part of the command.)
		copyRow = -1
	}
	c.Dev.ACT(a, now, d.Kind, d.Timing, copyRow)
	c.Mech.OnActivate(a, d, now)
	c.subs[i].hits = 0
	c.Stats.RowMisses++
	if c.Obs != nil {
		c.sched(SchedRowMiss, a, now)
	}
	return true
}

// evict precharges the open row of row buffer i — victim — as a row conflict.
// If the row cannot close yet the buffer is marked blocked for the rest of the
// pass: whatever another request wants of it waits on this same PRE.
func (c *Controller) evict(victim dram.Addr, i int, now int64) bool {
	if !c.ready(c.Dev.ReadyPREAt(i), now) {
		c.subs[i].blocked = c.gen
		return false
	}
	c.Stats.RowConflicts++
	if c.Obs != nil {
		c.sched(SchedRowConflict, victim, now)
	}
	c.preAndNotify(victim, now)
	return true
}

// issueColumn issues the RD or WR for a request whose row is open.
func (c *Controller) issueColumn(r *Request, now int64) bool {
	if r.Type == Read {
		if !c.ready(c.Dev.ReadyRD(r.Addr), now) {
			return false
		}
		done := c.Dev.RD(r.Addr, now)
		c.Stats.ReadsServed++
		c.Stats.ReadLatencySum += done - r.Arrive
		if !r.IsPref {
			c.ReadLatency.Add(float64(done - r.Arrive))
		}
		c.events.Push(done, r)
		return true
	}
	if !c.ready(c.Dev.ReadyWR(r.Addr), now) {
		return false
	}
	c.Dev.WR(r.Addr, now)
	c.Stats.WritesServed++
	return true
}

// serviceTimeout closes rows idle past the timeout with no queued requests
// (the Table 2 timeout-based row-buffer policy, and "closed" with a zero
// timeout). Returns true if it issued a command.
func (c *Controller) serviceTimeout(now int64) bool {
	for _, i := range c.Dev.Open() {
		if !c.ready(c.Dev.LastUseAt(i)+c.timeout, now) || c.hasRequestFor(i) {
			continue
		}
		if c.ready(c.Dev.ReadyPREAt(i), now) {
			a := c.openAddr(i)
			c.Stats.TimeoutCloses++
			if c.Obs != nil {
				c.sched(SchedTimeoutClose, a, now)
			}
			c.preAndNotify(a, now)
			return true
		}
	}
	return false
}

// hasRequestFor reports whether a queued request targets the open row of
// row buffer i; the queues are looked at only if the buffer's counts say one
// of their requests is for it at all.
func (c *Controller) hasRequestFor(i int) bool {
	row := c.Dev.OpenRowAt(i)
	for _, q := range []*[]*Request{&c.readQ, &c.writeQ} {
		if *c.count(q, i) == 0 {
			continue
		}
		for _, r := range *q {
			if r.sub == i && r.Addr.Row == row {
				return true
			}
		}
	}
	return false
}

// audit compares what is kept incrementally — each request's index, the queued
// counts, the channel's open list — with a scan of both queues and every
// row buffer, and panics on a difference.
func (c *Controller) audit() {
	subs, banks := make([]subSched, len(c.subs)), make([]int32, len(c.bankQueued))
	for _, q := range []*[]*Request{&c.readQ, &c.writeQ} {
		for _, r := range *q {
			if r.sub != c.Dev.SubIndex(r.Addr) || r.bank != r.Addr.Rank*c.Cfg.Geo.Banks+r.Addr.Bank {
				panic(fmt.Sprintf("ctrl: ch%d: queued request for %+v carries row buffer %d, bank %d", c.Cfg.ChannelID, r.Addr, r.sub, r.bank))
			}
			banks[r.bank]++
			if q == &c.writeQ {
				subs[r.sub].writes++
			} else {
				subs[r.sub].reads++
			}
		}
	}
	var open []int
	for i, s := range c.subs {
		if c.Dev.OpenRowAt(i) >= 0 {
			open = append(open, i)
		}
		if s.reads != subs[i].reads || s.writes != subs[i].writes {
			panic(fmt.Sprintf("ctrl: ch%d: row buffer %d counts %d reads and %d writes queued, the queues hold %d and %d",
				c.Cfg.ChannelID, i, s.reads, s.writes, subs[i].reads, subs[i].writes))
		}
	}
	if !slices.Equal(open, c.Dev.Open()) || !slices.Equal(banks, c.bankQueued) {
		panic(fmt.Sprintf("ctrl: ch%d: open list %v and per-bank counts %v, a scan of every row buffer and both queues says %v and %v",
			c.Cfg.ChannelID, c.Dev.Open(), c.bankQueued, open, banks))
	}
}
