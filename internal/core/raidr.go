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
	Tally   // TableRowRefresh: each weak-row refresh queued to a controller
	Geo     dram.Geometry
	T       dram.Timing
	Profile *retention.Profile

	base    dram.ActTimings
	pending [][]CopyOp
}

// NewRAIDR builds the mechanism for a system of `channels` channels.
func NewRAIDR(channels int, g dram.Geometry, t dram.Timing, p *retention.Profile) *RAIDR {
	r := &RAIDR{Geo: g, T: t, Profile: p, base: t.Base()}
	r.pending = make([][]CopyOp, channels)
	return r
}

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
func (r *RAIDR) OnRefreshRows(channel, rank, lo, hi, startRow, n int, cycle int64) {
	half := r.Geo.RowsPerBank / 2
	from := (startRow + half) % r.Geo.RowsPerBank
	to := from + n
	inRange := func(row int) bool {
		if to <= r.Geo.RowsPerBank {
			return row >= from && row < to
		}
		return row >= from || row < to-r.Geo.RowsPerBank
	}
	for b := lo; b < hi; b++ {
		for sa, weak := range r.Profile.Weak[channel][rank][b] {
			for _, row := range weak {
				abs := sa*r.Geo.RowsPerSubarray + row
				if !inRange(abs) {
					continue
				}
				a := dram.Addr{Channel: channel, Rank: rank, Bank: b, Row: abs}
				r.pending[channel] = append(r.pending[channel], CopyOp{Addr: a, Kind: dram.ActSingle, Timing: r.base})
				r.Count(TableRowRefresh, a, -1, cycle)
			}
		}
	}
}

// RefreshMultiplier implements Mechanism: strong rows refresh at a doubled
// window, like CROW-ref.
func (r *RAIDR) RefreshMultiplier() int { return 2 }

// NextCopy implements Mechanism: it pops a pending weak-row refresh for the
// channel; the controller executes it as an ACT followed by a full-tRAS PRE.
func (r *RAIDR) NextCopy(channel int, _ int64) (CopyOp, bool) {
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
