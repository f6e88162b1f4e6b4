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
	// Name identifies the mechanism in reports.
	Name() string

	// PlanActivate decides how to activate regular row a.Row, free of side
	// effects. The controller asks on a cycle a.Row's subarray can take an ACT
	// and issues one at once — the planned activation, or the RestoreFirst one,
	// after which it asks again — so calls number the request activations plus
	// the restore activations. (With RestoresAcrossSubarrays the plan is asked
	// before the device, on every cycle a request waits for a closed subarray.)
	PlanActivate(a dram.Addr, cycle int64) ActDecision

	// RestoresAcrossSubarrays reports whether a plan's RestoreRow can lie in
	// another subarray than the row planned for. The controller then cannot
	// take "this subarray is not ready for an ACT" to mean the plan has
	// nothing to issue, and consults the plan first.
	RestoresAcrossSubarrays() bool

	// OnActivate notifies the mechanism that the decision was executed.
	OnActivate(a dram.Addr, d ActDecision, cycle int64)

	// OnPrecharge notifies the mechanism that the subarray holding
	// openRow (a regular-row index within the bank) was precharged, and
	// whether the activation lasted long enough to fully restore it.
	OnPrecharge(a dram.Addr, openRow int, fullyRestored bool, cycle int64)

	// OnRefreshRows notifies the mechanism that rows
	// [startRow, startRow+n) were refreshed in every bank of the rank
	// (bank == -1, all-bank REFab) or in one bank (per-bank REFpb).
	OnRefreshRows(channel, rank, bank, startRow, n int)

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
	NextCopy(channel int) (CopyOp, bool)
}

// NoOps supplies the do-nothing form of every Mechanism hook a simple
// mechanism has no use for; embedding it leaves Name and PlanActivate (and
// whichever hooks the mechanism does use) to declare. A wrapper around another
// mechanism must not embed it: every method it fails to forward would
// silently stop reaching the wrapped mechanism.
type NoOps struct{}

// RestoresAcrossSubarrays implements Mechanism.
func (NoOps) RestoresAcrossSubarrays() bool { return false }

// OnActivate implements Mechanism.
func (NoOps) OnActivate(dram.Addr, ActDecision, int64) {}

// OnPrecharge implements Mechanism.
func (NoOps) OnPrecharge(dram.Addr, int, bool, int64) {}

// OnRefreshRows implements Mechanism.
func (NoOps) OnRefreshRows(int, int, int, int, int) {}

// RefreshMultiplier implements Mechanism.
func (NoOps) RefreshMultiplier() int { return 1 }

// RefreshDivisor implements Mechanism.
func (NoOps) RefreshDivisor() int { return 1 }

// NextCopy implements Mechanism.
func (NoOps) NextCopy(int) (CopyOp, bool) { return CopyOp{}, false }

// Baseline is the conventional-DRAM mechanism: every activation is a plain
// single-row ACT at standard timings.
type Baseline struct {
	NoOps
	T dram.Timing
}

// Name implements Mechanism.
func (b *Baseline) Name() string { return "baseline" }

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
	T         dram.Timing
	NoRefresh bool
}

// Name implements Mechanism.
func (i *Ideal) Name() string { return "ideal" }

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

// Unwrap peels mechanism wrappers (mitigation shields and the like) that
// expose their inner mechanism via an Unwrap method, returning the innermost
// mechanism. Type asserts against concrete mechanisms (e.g. *CROW) should go
// through it so wrapping stays transparent.
func Unwrap(m Mechanism) Mechanism {
	for {
		u, ok := m.(interface{ Unwrap() Mechanism })
		if !ok {
			return m
		}
		m = u.Unwrap()
	}
}
