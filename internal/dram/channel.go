package dram

import (
	"fmt"
	"math/bits"
)

// subState tracks the activation state of one subarray's local row buffer.
//
// In conventional DRAM at most one subarray per bank holds an open row; with
// SALP-MASA enabled (Section 8.1.4 baseline), every subarray may hold one.
type subState struct {
	openRow  int // regular-row index within the bank; -1 when closed
	kind     ActKind
	plan     ActTimings
	actCycle int64
	rdReady  int64 // earliest RD/WR (ACT + tRCD)
	preReady int64 // earliest PRE (tRAS, tRTP, write recovery)
	actReady int64 // earliest next ACT (PRE + tRP, REF + tRFC)
	lastUse  int64 // last ACT/RD/WR cycle (for timeout row policy)
}

// bank holds the two summaries that keep whole-bank questions off the
// per-subarray states: how many of its subarrays hold an open row, and when the
// last of them is past its precharge recovery.
type bank struct {
	openCount int
	actReady  int64 // max over the bank's subarrays of subState.actReady
	refBusy   int64 // per-bank refresh in progress until this cycle
}

// rank tracks rank-level activation and refresh constraints.
type rank struct {
	banks     []bank
	actTimes  [4]int64 // ring of the last four ACT cycles (tFAW)
	actHead   int
	actCount  int
	lastACT   int64 // most recent ACT (tRRD)
	refBusy   int64 // REF in progress until this cycle
	wrDataEnd int64 // end of most recent write burst (tWTR)

	// dataBusFree is the per-rank data-bus horizon, used instead of the
	// channel-level one when Features.PerRankDataBus is set (HBM2
	// pseudo-channels: each pseudo-channel owns half the data interface).
	dataBusFree int64
}

// Features selects optional device behaviours that distinguish the memory
// standards sharing this state machine.
type Features struct {
	// PerRankDataBus gives every rank its own data bus, modelling HBM2
	// pseudo-channels (mapped onto the rank dimension): the command/address
	// bus stays shared, but data bursts on different pseudo-channels do not
	// serialize against each other.
	PerRankDataBus bool
}

// Stats counts the commands issued to a channel, by type.
type Stats struct {
	ACT        int64 // conventional single-row activations
	ACTTwo     int64 // ACT-t
	ACTCopy    int64 // ACT-c
	ACTCopyRow int64 // single activation of a copy row (CROW-ref remap)
	PRE        int64
	RD         int64
	WR         int64
	REF        int64 // all-bank refreshes
	REFpb      int64 // per-bank refreshes

	// ActRasSingle/ActRasMRA accumulate the per-activation restore
	// window (the timing plan's tRAS) in cycles, for single-wordline and
	// two-wordline activations respectively. Early-terminated CROW
	// activations restore less charge and therefore consume less
	// activation energy; the energy model integrates these windows.
	ActRasSingle int64
	ActRasMRA    int64

	// OpenBufferCycles integrates the number of open local row buffers
	// over time; the energy model uses it for active-standby power and
	// for SALP's extra static power per additional open buffer.
	OpenBufferCycles int64
	// ActiveStandbyCycles counts cycles with at least one open row.
	ActiveStandbyCycles int64
	// RefreshBusyCycles counts cycles a rank was blocked by REF.
	RefreshBusyCycles int64
	// RDBusyCycles/WRBusyCycles count data-bus occupancy.
	RDBusyCycles int64
	WRBusyCycles int64
}

// Activations returns the total number of activate commands of all kinds.
func (s *Stats) Activations() int64 { return s.ACT + s.ACTTwo + s.ACTCopy + s.ACTCopyRow }

// Sub returns s minus b, field by field: the counters accumulated since the
// snapshot b was taken. TestStatsSubCoversEveryField fails if a field added
// to Stats is not added here.
func (s Stats) Sub(b Stats) Stats {
	return Stats{
		ACT: s.ACT - b.ACT, ACTTwo: s.ACTTwo - b.ACTTwo, ACTCopy: s.ACTCopy - b.ACTCopy,
		ACTCopyRow: s.ACTCopyRow - b.ACTCopyRow, PRE: s.PRE - b.PRE,
		RD: s.RD - b.RD, WR: s.WR - b.WR, REF: s.REF - b.REF, REFpb: s.REFpb - b.REFpb,
		ActRasSingle:        s.ActRasSingle - b.ActRasSingle,
		ActRasMRA:           s.ActRasMRA - b.ActRasMRA,
		OpenBufferCycles:    s.OpenBufferCycles - b.OpenBufferCycles,
		ActiveStandbyCycles: s.ActiveStandbyCycles - b.ActiveStandbyCycles,
		RefreshBusyCycles:   s.RefreshBusyCycles - b.RefreshBusyCycles,
		RDBusyCycles:        s.RDBusyCycles - b.RDBusyCycles,
		WRBusyCycles:        s.WRBusyCycles - b.WRBusyCycles,
	}
}

// Add returns s plus b, field by field (summing channels).
func (s Stats) Add(b Stats) Stats { return s.Sub(Stats{}.Sub(b)) }

// CmdEvent describes one command issued by the channel, as seen on the
// command bus. It carries everything an external monitor needs to replay the
// device's visible behaviour: the command, its full address (including the
// copy-row operand of CROW activations), the activation timing plan, and —
// for PRE — whether the closing activation met its full-restoration window.
type CmdEvent struct {
	Cmd     Command
	Addr    Addr
	Cycle   int64
	Kind    ActKind    // activate commands only
	CopyRow int        // copy-row operand of CROW activations; -1 if none
	Plan    ActTimings // activate commands only
	// FullyRestored is meaningful for PRE: whether the closed activation
	// was held open for at least its plan's full-restoration time.
	FullyRestored bool
}

// CommandObserver receives every command a channel issues, in issue order.
// The tests' timing re-validator in this package is one; the correctness
// oracle in internal/oracle and the event tracer in internal/obs, which
// correlate commands across channels and against system-level state, are two
// more.
type CommandObserver interface {
	OnCommand(e CmdEvent)
}

// Channel is the cycle-accurate device model of one DRAM channel.
//
// The controller drives it with Ready*/issue method pairs; the device enforces
// every intra-device timing constraint and panics on protocol violations
// (issuing a command the device reported illegal is a controller bug).
type Channel struct {
	Geo Geometry
	T   Timing

	// MASA enables SALP-MASA subarray-level parallelism: multiple
	// subarrays of the same bank may hold open rows concurrently.
	MASA bool

	// Features selects standard-specific device behaviours; the zero value
	// is the conventional LPDDR4/DDR5 shared-bus channel.
	Features Features

	ranks []rank
	// subs is the state of every subarray, in (rank, bank, subarray) order: a
	// subarray's position in it is its name (SubIndex), which the controller's
	// per-subarray state shares. open lists the indices holding an open row,
	// ascending — the order in which refresh and the row policy close rows.
	subs        []subState
	open        []int
	subsPerBank int
	subShift    uint  // log2(Geo.RowsPerSubarray): a row's subarray is row >> subShift
	cmdBusFree  int64 // next cycle the command bus is free
	dataBusFree int64 // next cycle the data bus is free
	lastColCmd  int64 // most recent RD/WR issue cycle (tCCD)

	Stats Stats

	// obs receives every issued command, fanned out in attach order, so
	// independent consumers (the correctness oracle, the event tracer,
	// interval telemetry) coexist on one channel. Empty for ordinary runs:
	// the per-command cost is then a single nil check.
	obs []CommandObserver

	lastTick int64
}

// Attach subscribes an observer to every command the channel issues from now
// on. Observers are invoked synchronously at issue time, in attach order.
func (c *Channel) Attach(o CommandObserver) {
	c.obs = append(c.obs, o)
}

// Observers returns the number of attached command observers.
func (c *Channel) Observers() int { return len(c.obs) }

// emit fans one command event out to every attached observer. Callers guard
// with `c.obs != nil` so the disabled path costs one comparison and the
// CmdEvent is never materialized.
func (c *Channel) emit(e CmdEvent) {
	for _, o := range c.obs {
		o.OnCommand(e)
	}
}

// NewChannel builds a closed, idle channel device.
func NewChannel(g Geometry, t Timing) *Channel {
	if bits.OnesCount(uint(g.RowsPerSubarray)) != 1 {
		panic(fmt.Sprintf("dram: %d rows per subarray is not a power of two", g.RowsPerSubarray))
	}
	c := &Channel{
		Geo: g, T: t,
		subsPerBank: g.SubarraysPerBank(),
		subShift:    uint(bits.TrailingZeros(uint(g.RowsPerSubarray))),
	}
	const never = int64(-1) << 62
	c.lastColCmd = never
	c.ranks = make([]rank, g.Ranks)
	for r := range c.ranks {
		c.ranks[r].lastACT = never
		c.ranks[r].wrDataEnd = never
		c.ranks[r].banks = make([]bank, g.Banks)
	}
	c.subs = make([]subState, g.Ranks*g.Banks*c.subsPerBank)
	for i := range c.subs {
		c.subs[i].openRow = -1
	}
	c.open = make([]int, 0, g.Ranks*g.Banks)
	return c
}

// SubIndex names the subarray containing a.Row: its position in the channel's
// (rank, bank, subarray) order. The *At accessors take it in place of an
// address, so a caller that asks about one subarray many times (the
// controller, once per queued request per scheduling pass) computes it once.
func (c *Channel) SubIndex(a Addr) int {
	return (a.Rank*c.Geo.Banks+a.Bank)*c.subsPerBank + a.Row>>c.subShift
}

func (c *Channel) sub(a Addr) *subState { return &c.subs[c.SubIndex(a)] }

// dataFree returns the data-bus horizon governing rank r: the channel bus,
// or the rank's own when the standard has per-rank data buses.
func (c *Channel) dataFree(r int) int64 {
	if c.Features.PerRankDataBus {
		return c.ranks[r].dataBusFree
	}
	return c.dataBusFree
}

func (c *Channel) setDataFree(r int, v int64) {
	if c.Features.PerRankDataBus {
		c.ranks[r].dataBusFree = v
		return
	}
	c.dataBusFree = v
}

// Tick advances the channel's per-cycle accounting to `now`. The controller
// calls it before issuing commands; `now` may be more than one cycle past
// the previous Tick (the idle-skip contract), in which case the skipped
// cycles are integrated exactly as if ticked one by one — no commands can
// have issued in between, so the open-buffer population is constant over
// the gap and refresh-busy windows are clipped to their recorded end.
func (c *Channel) Tick(now int64) {
	delta := now - c.lastTick
	if delta <= 0 {
		return
	}
	prev := c.lastTick
	c.lastTick = now
	open := int64(len(c.open))
	c.Stats.OpenBufferCycles += open * delta
	if open > 0 {
		c.Stats.ActiveStandbyCycles += delta
	}
	for r := range c.ranks {
		// Cycles cy in (prev, now] with refBusy > cy.
		if end := c.ranks[r].refBusy - 1; end > prev {
			if end > now {
				end = now
			}
			c.Stats.RefreshBusyCycles += end - prev
		}
	}
}

// Open returns the SubIndex of every open local row buffer, ascending — (rank,
// bank, subarray) order. The slice is the channel's own: read it in place, and
// not across an ACT or PRE.
func (c *Channel) Open() []int { return c.open }

// OpenRow returns the open regular-row index of the subarray containing
// a.Row, or -1 if that subarray's buffer is closed.
func (c *Channel) OpenRow(a Addr) int { return c.sub(a).openRow }

// OpenRowAt is OpenRow for the subarray at SubIndex i.
func (c *Channel) OpenRowAt(i int) int { return c.subs[i].openRow }

// OpenAddrAt is the address (rank, bank, open row) of the row held open by the
// subarray at SubIndex i: the inverse of SubIndex, for the one row a walk of
// the open list goes on to precharge.
func (c *Channel) OpenAddrAt(i int) Addr {
	b := i / c.subsPerBank
	return Addr{Rank: b / c.Geo.Banks, Bank: b % c.Geo.Banks, Row: c.subs[i].openRow}
}

// OpenRowInBank reports the open row of bank (rank,bank) in non-MASA mode,
// or -1 if the bank is fully closed. With MASA, use OpenRow per subarray.
func (c *Channel) OpenRowInBank(rankID, bankID int) int {
	if c.ranks[rankID].banks[bankID].openCount == 0 {
		return -1
	}
	return c.subs[c.open[c.openPos((rankID*c.Geo.Banks+bankID)*c.subsPerBank)]].openRow
}

// openPos returns the position in the open list of the first index not below
// i: where subarray i is, or belongs. (By hand: slices.BinarySearch, Insert and
// Delete cost an ACT/PRE pair 40 ns on the benchmark host, this 8.)
func (c *Channel) openPos(i int) int {
	lo, hi := 0, len(c.open)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c.open[m] < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// LastUseAt returns the cycle of the most recent ACT/RD/WR to the subarray at
// SubIndex i (for the timeout row-buffer policy).
func (c *Channel) LastUseAt(i int) int64 { return c.subs[i].lastUse }

// Horizon is a sentinel cycle meaning "no event scheduled": far enough in
// the future that no simulation reaches it, yet safe to add small offsets
// to without overflowing int64.
const Horizon = int64(1) << 60

// The Ready* queries answer *when* a command becomes legal: a command is legal
// at `now` exactly when `now >= Ready*`, which is also the test each command
// makes before it issues, so every timing rule exists once. Between two
// commands nothing on the channel changes, and each rule is a plain threshold
// on the cycle number, so a Ready* value stays exact until the next command
// issues: the command is illegal at every earlier cycle and legal from that
// cycle on. A command that only a state change can unblock (a closed row for
// RD/WR/PRE, an open one for ACT/REF) reports Horizon.

// ReadyACT returns the earliest cycle an activation targeting a.Row's
// subarray may issue, or Horizon while that subarray (or, without MASA, any
// subarray of the bank) holds an open row. The activation kind does not
// enter: every variant obeys the same issue rules.
func (c *Channel) ReadyACT(a Addr) int64 {
	rk := &c.ranks[a.Rank]
	bk := &rk.banks[a.Bank]
	s := c.sub(a)
	if s.openRow >= 0 || (!c.MASA && bk.openCount > 0) {
		return Horizon
	}
	at := max(c.cmdBusFree, s.actReady, rk.refBusy, bk.refBusy, rk.lastACT+int64(c.T.RRD))
	if rk.actCount == 4 {
		at = max(at, rk.actTimes[rk.actHead]+int64(c.T.FAW))
	}
	return at
}

// ACT issues an activation of kind k with per-activation timings t.
//
// copyRow is the copy-row operand carried by CROW's two-row and copy-row
// commands (the extra command-bus cycle of footnote 3); pass -1 when the
// activation involves no copy row. The device itself only records it — the
// mechanism and the oracle give it meaning.
func (c *Channel) ACT(a Addr, now int64, k ActKind, t ActTimings, copyRow int) {
	if now < c.ReadyACT(a) {
		panic(fmt.Sprintf("dram: illegal %v to ch%d/r%d/b%d row %d at cycle %d", k, a.Channel, a.Rank, a.Bank, a.Row, now))
	}
	rk := &c.ranks[a.Rank]
	i := c.SubIndex(a)
	s := &c.subs[i]
	s.openRow = a.Row
	s.kind = k
	s.plan = t
	s.actCycle = now
	s.rdReady = now + int64(t.RCD)
	s.preReady = now + int64(t.RAS)
	s.lastUse = now
	rk.banks[a.Bank].openCount++
	p := c.openPos(i)
	c.open = append(c.open, 0)
	copy(c.open[p+1:], c.open[p:])
	c.open[p] = i
	rk.lastACT = now
	rk.actTimes[rk.actHead] = now
	rk.actHead = (rk.actHead + 1) % 4
	if rk.actCount < 4 {
		rk.actCount++
	}
	c.cmdBusFree = now + int64(k.CmdCycles())
	switch k {
	case ActSingle:
		c.Stats.ACT++
		c.Stats.ActRasSingle += int64(t.RAS)
	case ActTwo:
		c.Stats.ACTTwo++
		c.Stats.ActRasMRA += int64(t.RAS)
	case ActCopy:
		c.Stats.ACTCopy++
		c.Stats.ActRasMRA += int64(t.RAS)
	case ActCopyRow:
		c.Stats.ACTCopyRow++
		c.Stats.ActRasSingle += int64(t.RAS)
	}
	if c.obs != nil {
		c.emit(CmdEvent{Cmd: CmdACT + Command(k), Addr: a, Cycle: now, Kind: k, CopyRow: copyRow, Plan: t})
	}
}

// readyCol returns the earliest cycle a column command to the open row a.Row
// may issue, given its command-to-data latency (CL for reads, CWL for
// writes): the data burst may not start before the governing bus is free.
func (c *Channel) readyCol(a Addr, toData int) int64 {
	s := c.sub(a)
	if s.openRow != a.Row {
		return Horizon
	}
	return max(c.cmdBusFree, s.rdReady, c.lastColCmd+int64(c.T.CCD), c.dataFree(a.Rank)-int64(toData))
}

// ReadyRD returns the earliest cycle a read of a.Col from the open row a.Row
// may issue, or Horizon while another row (or none) is open.
func (c *Channel) ReadyRD(a Addr) int64 {
	return max(c.readyCol(a, c.T.CL), c.ranks[a.Rank].wrDataEnd+int64(c.T.WTR))
}

// RD issues a read and returns the cycle at which the data burst completes.
func (c *Channel) RD(a Addr, now int64) int64 {
	if now < c.ReadyRD(a) {
		panic(fmt.Sprintf("dram: illegal RD to ch%d/r%d/b%d row %d at cycle %d", a.Channel, a.Rank, a.Bank, a.Row, now))
	}
	s := c.sub(a)
	dataStart := now + int64(c.T.CL)
	c.setDataFree(a.Rank, dataStart+int64(c.T.BL))
	c.lastColCmd = now
	c.cmdBusFree = now + 1
	if pre := now + int64(c.T.RTP); pre > s.preReady {
		s.preReady = pre
	}
	s.lastUse = now
	c.Stats.RD++
	c.Stats.RDBusyCycles += int64(c.T.BL)
	if c.obs != nil {
		c.emit(CmdEvent{Cmd: CmdRD, Addr: a, Cycle: now, CopyRow: -1})
	}
	return dataStart + int64(c.T.BL)
}

// ReadyWR returns the earliest cycle a write to a.Col of the open row a.Row
// may issue, or Horizon while another row (or none) is open.
func (c *Channel) ReadyWR(a Addr) int64 { return c.readyCol(a, c.T.CWL) }

// WR issues a write. The write-recovery time applied before a PRE of this
// subarray is the per-activation plan's WR (writes to an MRA-opened pair
// restore two cells; Table 1).
func (c *Channel) WR(a Addr, now int64) {
	if now < c.ReadyWR(a) {
		panic(fmt.Sprintf("dram: illegal WR to ch%d/r%d/b%d row %d at cycle %d", a.Channel, a.Rank, a.Bank, a.Row, now))
	}
	rk := &c.ranks[a.Rank]
	s := c.sub(a)
	dataEnd := now + int64(c.T.CWL) + int64(c.T.BL)
	c.setDataFree(a.Rank, dataEnd)
	c.lastColCmd = now
	c.cmdBusFree = now + 1
	rk.wrDataEnd = dataEnd
	if pre := dataEnd + int64(s.plan.WR); pre > s.preReady {
		s.preReady = pre
	}
	s.lastUse = now
	c.Stats.WR++
	c.Stats.WRBusyCycles += int64(c.T.BL)
	if c.obs != nil {
		c.emit(CmdEvent{Cmd: CmdWR, Addr: a, Cycle: now, CopyRow: -1})
	}
}

// ReadyPRE returns the earliest cycle the subarray holding a.Row may be
// precharged, or Horizon while it is closed.
func (c *Channel) ReadyPRE(a Addr) int64 { return c.ReadyPREAt(c.SubIndex(a)) }

// ReadyPREAt is ReadyPRE for the subarray at SubIndex i.
func (c *Channel) ReadyPREAt(i int) int64 {
	s := &c.subs[i]
	if s.openRow < 0 {
		return Horizon
	}
	return max(c.cmdBusFree, s.preReady)
}

// PRE closes the open row of a.Row's subarray and returns whether the
// activation was held open for at least the plan's full-restoration time,
// which is what decides the isFullyRestored state of a CROW pair
// (Section 4.1.4).
func (c *Channel) PRE(a Addr, now int64) (fullyRestored bool) {
	if now < c.ReadyPRE(a) {
		panic(fmt.Sprintf("dram: illegal PRE to ch%d/r%d/b%d at cycle %d", a.Channel, a.Rank, a.Bank, now))
	}
	bk := &c.ranks[a.Rank].banks[a.Bank]
	i := c.SubIndex(a)
	s := &c.subs[i]
	full := now-s.actCycle >= int64(s.plan.RASFull)
	s.openRow = -1
	if ready := now + int64(c.T.RP); ready > s.actReady {
		s.actReady = ready
		bk.actReady = max(bk.actReady, ready)
	}
	bk.openCount--
	p := c.openPos(i)
	c.open = append(c.open[:p], c.open[p+1:]...)
	c.cmdBusFree = now + 1
	c.Stats.PRE++
	if c.obs != nil {
		c.emit(CmdEvent{Cmd: CmdPRE, Addr: a, Cycle: now, CopyRow: -1, FullyRestored: full})
	}
	return full
}

// ReadyRefresh returns the earliest cycle a refresh of banks [lo, hi) of the
// rank may issue: REF refreshes the whole rank, REFpb one bank. Every bank in
// the range must be past its precharge recovery and any refresh of its own,
// and no all-bank refresh may be in progress on the rank. It returns Horizon
// while any bank in the range holds an open row. Banks outside the range stay
// accessible — the point of per-bank refresh.
func (c *Channel) ReadyRefresh(rankID, lo, hi int) int64 {
	rk := &c.ranks[rankID]
	at := max(c.cmdBusFree, rk.refBusy)
	for b := lo; b < hi; b++ {
		bk := &rk.banks[b]
		if bk.openCount > 0 {
			return Horizon
		}
		at = max(at, bk.refBusy, bk.actReady)
	}
	return at
}

// REFpb issues a per-bank refresh, blocking only that bank for tRFCpb (the
// refBusy horizon every activation and refresh of the bank checks).
func (c *Channel) REFpb(rankID, bankID int, now int64) {
	if now < c.ReadyRefresh(rankID, bankID, bankID+1) {
		panic(fmt.Sprintf("dram: illegal REFpb to rank %d bank %d at cycle %d", rankID, bankID, now))
	}
	c.ranks[rankID].banks[bankID].refBusy = now + int64(c.T.RFCpb)
	c.cmdBusFree = now + 1
	c.Stats.REFpb++
	if c.obs != nil {
		c.emit(CmdEvent{Cmd: CmdREFpb, Addr: Addr{Rank: rankID, Bank: bankID}, Cycle: now, CopyRow: -1})
	}
}

// REF issues an all-bank refresh, blocking the rank for tRFC (the refBusy
// horizon every activation and refresh of the rank checks).
func (c *Channel) REF(rankID int, now int64) {
	if now < c.ReadyRefresh(rankID, 0, c.Geo.Banks) {
		panic(fmt.Sprintf("dram: illegal REF to rank %d at cycle %d", rankID, now))
	}
	c.ranks[rankID].refBusy = now + int64(c.T.RFC)
	c.cmdBusFree = now + 1
	c.Stats.REF++
	if c.obs != nil {
		c.emit(CmdEvent{Cmd: CmdREF, Addr: Addr{Rank: rankID}, Cycle: now, CopyRow: -1})
	}
}
