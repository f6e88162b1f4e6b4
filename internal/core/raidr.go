package core

import (
	"crowdram/internal/dram"
	"crowdram/internal/retention"
)

// RAIDR is a retention-aware refresh baseline in the spirit of RAIDR
// (Liu et al. [64]), which the paper's footnote 4 names as an alternative
// (and complement) to CROW-ref. Instead of remapping weak rows, RAIDR bins
// rows by retention time: the bulk of (strong) rows refresh at a doubled
// window, while the few weak rows are refreshed individually at the default
// rate with row-granular activate/precharge pairs issued by the controller.
//
// Compared with CROW-ref, RAIDR needs no copy rows (no capacity cost) and
// tolerates any number of weak rows, but it keeps paying per-weak-row
// refresh work forever and does not compose with CROW-cache's latency
// mechanism.
type RAIDR struct {
	NoOps
	Geo     dram.Geometry
	T       dram.Timing
	Profile *retention.Profile

	// RowRefreshes counts the row-granular weak-row refresh operations
	// queued to the controllers.
	RowRefreshes int64

	base    dram.ActTimings
	pending [][]CopyOp
}

// NewRAIDR builds the mechanism for a system of `channels` channels.
func NewRAIDR(channels int, g dram.Geometry, t dram.Timing, p *retention.Profile) *RAIDR {
	r := &RAIDR{Geo: g, T: t, Profile: p, base: t.Base()}
	r.pending = make([][]CopyOp, channels)
	return r
}

// Name implements Mechanism.
func (r *RAIDR) Name() string { return "raidr" }

// PlanActivate implements Mechanism: RAIDR leaves row placement untouched.
func (r *RAIDR) PlanActivate(dram.Addr, int64) ActDecision {
	return ActDecision{Kind: dram.ActSingle, Timing: r.base}
}

// OnRefreshRows implements Mechanism: the bulk REF stream covers every row
// once per *doubled* window, so weak rows need one extra refresh per default
// window. RAIDR interleaves these row-granular refreshes with the bulk
// stream: alongside the REF covering rows [startRow, startRow+n), the weak
// rows half a bank ahead (i.e. half a window away in time) are refreshed
// individually, giving every weak row the default cadence with the work
// spread evenly.
func (r *RAIDR) OnRefreshRows(channel, rank, bank, startRow, n int) {
	half := r.Geo.RowsPerBank / 2
	lo := (startRow + half) % r.Geo.RowsPerBank
	hi := lo + n
	inRange := func(row int) bool {
		if hi <= r.Geo.RowsPerBank {
			return row >= lo && row < hi
		}
		return row >= lo || row < hi-r.Geo.RowsPerBank
	}
	for b, subs := range r.Profile.Weak[channel][rank] {
		if bank >= 0 && b != bank {
			continue
		}
		for sa, weak := range subs {
			for _, row := range weak {
				abs := sa*r.Geo.RowsPerSubarray + row
				if !inRange(abs) {
					continue
				}
				r.pending[channel] = append(r.pending[channel], CopyOp{
					Addr:   dram.Addr{Channel: channel, Rank: rank, Bank: b, Row: abs},
					Kind:   dram.ActSingle,
					Timing: r.base,
				})
				r.RowRefreshes++
			}
		}
	}
}

// RefreshMultiplier implements Mechanism: strong rows refresh at a doubled
// window, like CROW-ref.
func (r *RAIDR) RefreshMultiplier() int { return 2 }

// NextCopy implements Mechanism: it pops a pending weak-row refresh for the
// channel; the controller executes it as an ACT followed by a full-tRAS PRE.
func (r *RAIDR) NextCopy(channel int) (CopyOp, bool) {
	q := r.pending[channel]
	if len(q) == 0 {
		return CopyOp{}, false
	}
	op := q[0]
	r.pending[channel] = q[1:]
	return op, true
}

// RAIDRStorageKB estimates RAIDR's controller storage: Bloom filters
// identifying the weak rows (~10 bits per weak row at a 1 % false-positive
// rate; RAIDR reports 1.25 KB for a 32 GiB system).
func RAIDRStorageKB(weakRows int) float64 {
	return float64(weakRows) * 10 / 8 / 1000
}
