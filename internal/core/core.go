// Package core implements the CROW substrate (Section 3 of the paper): copy
// rows, the CROW-table, and the mechanisms built on top of them —
// CROW-cache (Section 4.1), CROW-ref (Section 4.2) and the RowHammer
// mitigation (Section 4.3).
//
// A Mechanism plugs into the memory controller at the activation decision
// point: before activating a regular row, the controller asks the mechanism
// how to activate it (plain ACT, CROW's ACT-t / ACT-c, or a remapped
// copy-row activation), and notifies it of activations, precharges and
// refreshes so it can maintain the CROW-table's restore state.
package core

import "crowdram/internal/dram"

// ActDecision tells the controller how to activate a regular row.
type ActDecision struct {
	// Kind selects the activation command variant.
	Kind dram.ActKind
	// CopyRow is the copy-row index within the subarray for ActTwo,
	// ActCopy and ActCopyRow.
	CopyRow int
	// Timing is the per-activation timing plan.
	Timing dram.ActTimings

	// RestoreFirst indicates that, before this row can be cached, the
	// controller must fully restore a partially-restored victim pair
	// (Section 4.1.4): activate RestoreRow with ACT-t under
	// RestoreTiming, precharge it, then retry.
	RestoreFirst   bool
	RestoreRow     int // regular-row index within the bank
	RestoreCopyRow int
	RestoreTiming  dram.ActTimings
}

// Mechanism is the controller-side interface of a CROW-based (or competing)
// mechanism. Implementations must be deterministic and are called from a
// single goroutine; one instance serves every channel of a system.
type Mechanism interface {
	// PlanActivate decides how to activate regular row a.Row, free of side
	// effects. The controller asks on a cycle a.Row's row buffer can take an
	// ACT and issues one at once — the planned activation, or the RestoreFirst
	// one, after which it asks again — so calls number the request activations
	// plus the restore activations. (Under MASA a RestoreRow in another
	// subarray's row buffer may not be ready yet: then nothing issues.)
	PlanActivate(a dram.Addr, cycle int64) ActDecision

	// OnActivate notifies the mechanism that the decision was executed.
	OnActivate(a dram.Addr, d ActDecision, cycle int64)

	// OnPrecharge notifies the mechanism that the subarray holding
	// openRow (a regular-row index within the bank) was precharged, and
	// whether the activation lasted long enough to fully restore it.
	OnPrecharge(a dram.Addr, openRow int, fullyRestored bool, cycle int64)

	// OnRefreshRows notifies the mechanism that rows [startRow, startRow+n)
	// were refreshed at cycle in banks [lo, hi) of the rank: every bank for
	// an all-bank REFab, one bank for a per-bank REFpb.
	OnRefreshRows(channel, rank, lo, hi, startRow, n int, cycle int64)

	// RefreshMultiplier scales the refresh interval: 1 for the baseline,
	// 2 when CROW-ref extends the window, 0 to disable refresh entirely
	// (the "no refresh" ideal).
	RefreshMultiplier() int

	// RefreshDivisor divides the refresh interval: 1 normally, N when a
	// mitigation refreshes N times as often. The controller ignores values
	// below 2.
	RefreshDivisor() int

	// NextCopy pops the next mechanism-initiated operation queued for the
	// channel (an ACT-c duplication or a row-granular refresh), if any. The
	// controller asks on every scheduling pass with no such operation in
	// flight.
	NextCopy(channel int, cycle int64) (CopyOp, bool)

	// Counters returns where the mechanism counts its events: sim attaches
	// the table observer there and snapshots the counters at the warm-up
	// boundary. A mechanism answers with the Tally it embeds; a wrapper
	// forwards to the mechanism it wraps.
	Counters() *Tally
}

// Stats counts a mechanism's events, one counter per TableEventKind.
type Stats [numTableEventKinds]int64

// HitRate returns the table hit rate over cache-eligible activations.
func (s Stats) HitRate() float64 {
	total := s[TableHit] + s[TableMiss]
	if total == 0 {
		return 0
	}
	return float64(s[TableHit]) / float64(total)
}

// TableEventKind classifies one mechanism event; it indexes Stats.
type TableEventKind uint8

// Event kinds. A hit is an activation served fast by the mechanism's table (a
// CROW ACT-t, a TL-DRAM near row, a ChargeCache highly-charged row); a miss is
// one it could have served and did not.
const (
	TableHit             TableEventKind = iota
	TableMiss                           // activation with no matching entry
	TableCopy                           // ACT-c duplication into a copy row
	TableEviction                       // cache entry replaced
	TableRestore                        // full restore before eviction (4.1.4)
	TableRefRemap                       // activation redirected to a CROW-ref copy row
	TableHamRemap                       // victim row remapped by CROW's RowHammer mitigation
	TableRowRefresh                     // RAIDR weak-row refresh queued
	TableNeighborRefresh                // PARA neighbour refresh handed to the controller
	numTableEventKinds
)

var tableEventNames = [...]string{
	"hit", "miss", "copy", "eviction", "restore", "ref-remap", "ham-remap",
	"row-refresh", "neighbor-refresh",
}

func (k TableEventKind) String() string { return tableEventNames[k] }

// TableEvent is one mechanism event, cycle-attributed.
type TableEvent struct {
	Kind  TableEventKind
	Cycle int64
	Addr  dram.Addr
	Way   int // copy-row way involved, -1 when none applies
}

// TableObserver receives mechanism events in issue order. Implementations
// must be cheap: they run on the activation path.
type TableObserver interface {
	OnTableEvent(e TableEvent)
}

// Tally is where a mechanism counts its events: the counters, and the
// observer each counted event is reported to. Embedding it answers
// Mechanism.Counters.
type Tally struct {
	Stats Stats
	Obs   TableObserver // nil: counting only
}

// Count records one event of kind k.
func (t *Tally) Count(k TableEventKind, a dram.Addr, way int, cycle int64) {
	t.Stats[k]++
	if t.Obs != nil {
		t.Obs.OnTableEvent(TableEvent{Kind: k, Cycle: cycle, Addr: a, Way: way})
	}
}

// Counters implements Mechanism.
func (t *Tally) Counters() *Tally { return t }

// NoOps supplies the do-nothing form of every Mechanism hook a simple
// mechanism has no use for; embedding it leaves PlanActivate (and whichever
// hooks the mechanism does use) to declare, and Counters to an
// embedded Tally. A wrapper around another mechanism must not embed it: every
// method it fails to forward would silently stop reaching the wrapped
// mechanism.
type NoOps struct{}

// OnActivate implements Mechanism.
func (NoOps) OnActivate(dram.Addr, ActDecision, int64) {}

// OnPrecharge implements Mechanism.
func (NoOps) OnPrecharge(dram.Addr, int, bool, int64) {}

// OnRefreshRows implements Mechanism.
func (NoOps) OnRefreshRows(int, int, int, int, int, int, int64) {}

// RefreshMultiplier implements Mechanism.
func (NoOps) RefreshMultiplier() int { return 1 }

// RefreshDivisor implements Mechanism.
func (NoOps) RefreshDivisor() int { return 1 }

// NextCopy implements Mechanism.
func (NoOps) NextCopy(int, int64) (CopyOp, bool) { return CopyOp{}, false }

// Baseline is the conventional-DRAM mechanism: every activation is a plain
// single-row ACT at standard timings.
type Baseline struct {
	NoOps
	Tally
	T dram.Timing
}

// PlanActivate implements Mechanism.
func (b *Baseline) PlanActivate(dram.Addr, int64) ActDecision {
	return ActDecision{Kind: dram.ActSingle, Timing: b.T.Base()}
}

// Ideal is the hypothetical configuration the paper compares against in
// Figures 8 and 14: a CROW-cache with a 100 % CROW-table hit rate (every
// activation is an ACT-t at reduced latency, with no copy or restore
// overhead), optionally with refresh disabled entirely.
type Ideal struct {
	NoOps
	Tally
	T         dram.Timing
	NoRefresh bool
}

// PlanActivate implements Mechanism.
func (i *Ideal) PlanActivate(dram.Addr, int64) ActDecision {
	crow := i.T.CROW()
	return ActDecision{Kind: dram.ActTwo, Timing: crow.TwoFull}
}

// RefreshMultiplier implements Mechanism.
func (i *Ideal) RefreshMultiplier() int {
	if i.NoRefresh {
		return 0
	}
	return 1
}

// Unwrap peels mechanism wrappers (mitigation shields) that expose their
// inner mechanism via an Unwrap method, returning the innermost mechanism, so
// a type switch on a mechanism sees through a shield.
func Unwrap(m Mechanism) Mechanism {
	for {
		u, ok := m.(interface{ Unwrap() Mechanism })
		if !ok {
			return m
		}
		m = u.Unwrap()
	}
}
