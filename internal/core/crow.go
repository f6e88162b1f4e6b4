package core

import (
	"crowdram/internal/dram"
	"crowdram/internal/retention"
)

// CROW is the combined CROW-substrate mechanism. Enabling Cache gives
// CROW-cache (Section 4.1); attaching a weak-row profile gives CROW-ref
// (Section 4.2); setting HammerThreshold enables the RowHammer mitigation
// (Section 4.3). All three share the CROW-table, with CROW-ref and the
// RowHammer mitigation pinning ways that CROW-cache then cannot use
// (Section 8.3).
type CROW struct {
	NoOps // RefreshDivisor; Counters comes from Tally, every other hook is below

	T     dram.Timing
	Table *Table
	Crow  dram.CROWTimings

	// Cache enables CROW-cache.
	Cache bool
	// Ref enables CROW-ref; weak rows come from the profile.
	Ref bool
	// HammerThreshold, when positive, remaps the neighbours of any row
	// activated this many times within one refresh window.
	HammerThreshold int
	// FullRestore disables early-terminated restoration (the
	// Section 4.1.3 optimization) as an ablation: every ACT-t and ACT-c
	// restores fully, so pairs never need a restore-before-evict pass,
	// but the tRAS and tWR reductions are forfeited.
	FullRestore bool

	Tally // every table event, counted and observed

	// Fallback records that CROW-ref fell back to the default refresh
	// interval: a subarray had more weak rows than copy rows.
	Fallback bool

	base dram.ActTimings

	// EagerRestore performs the restore-before-evict pass inline when a
	// miss would evict a partially-restored pair (the paper's literal
	// Section 4.1.4 flow); by default the allocation is skipped instead
	// and the pair is restored off the critical path.
	EagerRestore bool

	// hammer activation counters per channel: a contiguous array indexed
	// by ((rank*Banks)+bank)*RowsPerBank+row, allocated lazily on the
	// first counted activation of a channel (a flat slice like the
	// controller's per-subarray state: a map here was the last one on the hot
	// path).
	hammerCounts [][]int32
	// pendingCopies are mechanism-initiated ACT-c operations (RowHammer
	// victim duplication) awaiting issue, per channel.
	pendingCopies [][]CopyOp
}

// CopyOp is a mechanism-initiated activate/precharge operation the
// controller must perform at the next opportunity: an ACT-c row duplication
// (RowHammer victim protection) or a plain
// row-granular refresh activation (the RAIDR baseline).
type CopyOp struct {
	Addr    dram.Addr    // regular row to operate on (Col unused)
	Kind    dram.ActKind // ActCopy for duplications, ActSingle for refreshes
	CopyRow int
	Timing  dram.ActTimings
}

// NewCROW builds the combined mechanism over a fresh CROW-table.
func NewCROW(channels int, g dram.Geometry, t dram.Timing) *CROW {
	return NewCROWShared(channels, g, t, 1)
}

// NewCROWShared builds the mechanism over a CROW-table whose entry sets are
// shared across groups of `share` subarrays (the Section 6.1 storage
// optimization).
func NewCROWShared(channels int, g dram.Geometry, t dram.Timing, share int) *CROW {
	c := &CROW{
		T:     t,
		Table: NewSharedTable(channels, g, share),
		Crow:  t.CROW(),
		base:  t.Base(),
	}
	c.hammerCounts = make([][]int32, channels)
	c.pendingCopies = make([][]CopyOp, channels)
	return c
}

// LoadProfile installs a retention profile, remapping every weak regular row
// to a strong copy row (Section 4.2.2). If any subarray has more weak rows
// than available copy rows, CROW-ref falls back to the default refresh
// interval for the whole system (Section 4.2.1) but still remaps what fits.
func (c *CROW) LoadProfile(p *retention.Profile) {
	g := c.Table.Geo
	for ch, chw := range p.Weak {
		for rk, rkw := range chw {
			for bk, bkw := range rkw {
				for sa, weak := range bkw {
					a := dram.Addr{Channel: ch, Rank: rk, Bank: bk, Row: sa * g.RowsPerSubarray}
					set := c.Table.Set(a)
					for _, row := range weak {
						w := FreeWay(set)
						if w < 0 {
							c.Fallback = true
							break
						}
						set[w] = Entry{Allocated: true, RegularRow: row, SubTag: c.Table.SubTag(a), Kind: EntryRef, FullyRestored: true}
					}
				}
			}
		}
	}
}

// PlanActivate implements Mechanism.
func (c *CROW) PlanActivate(a dram.Addr, cycle int64) ActDecision {
	set := c.Table.Set(a)
	if w := c.Table.Lookup(a); w >= 0 {
		switch set[w].Kind {
		case EntryRef, EntryHammer:
			if set[w].CopyPending {
				// The remap's data copy has not executed yet, so the
				// copy row is stale: perform the copy with this
				// activation instead of redirecting to it.
				return ActDecision{Kind: dram.ActCopy, CopyRow: w, Timing: c.Crow.CopyFull}
			}
			// The regular row is remapped: activate the copy row
			// alone at baseline timings (Section 4.2.2).
			return ActDecision{Kind: dram.ActCopyRow, CopyRow: w, Timing: c.base}
		case EntryCache:
			t := c.Crow.TwoPartial
			if set[w].FullyRestored {
				t = c.Crow.TwoFull
			}
			if c.FullRestore {
				// Pairs are always fully restored: fast sensing,
				// but restoration runs to completion.
				t = dram.ActTimings{
					RCD:     c.Crow.TwoFull.RCD,
					RAS:     c.Crow.TwoRestore.RAS,
					RASFull: c.Crow.TwoRestore.RASFull,
					WR:      c.Crow.TwoRestore.WR,
				}
			}
			return ActDecision{Kind: dram.ActTwo, CopyRow: w, Timing: t}
		}
	}
	if !c.Cache {
		return ActDecision{Kind: dram.ActSingle, Timing: c.base}
	}
	// CROW-cache miss: duplicate into a free way, else the best victim
	// (fully-restored entries first: replacing them needs no restore).
	w := FreeWay(set)
	if w < 0 {
		w = VictimWay(set)
	}
	if w < 0 {
		// Every way pinned by CROW-ref/RowHammer remaps.
		return ActDecision{Kind: dram.ActSingle, Timing: c.base}
	}
	if set[w].Allocated && !set[w].FullyRestored {
		// The victim pair is partially restored; evicting it requires a
		// full restore first or a future single-row activation of it
		// would corrupt data (Section 4.1.4). Under the default lazy
		// policy we skip caching this activation instead — the partial
		// pair becomes fully restored soon (a later long-held
		// activation or the refresh sweep) and eviction resumes; under
		// EagerRestore the controller performs
		// the paper's restore-before-evict pass inline.
		if !c.EagerRestore {
			return ActDecision{Kind: dram.ActSingle, Timing: c.base}
		}
		return ActDecision{
			Kind: dram.ActSingle, Timing: c.base,
			RestoreFirst:   true,
			RestoreRow:     c.Table.AbsoluteRow(a, set[w]),
			RestoreCopyRow: w,
			RestoreTiming:  c.Crow.TwoRestore,
		}
	}
	copyPlan := c.Crow.Copy
	if c.FullRestore {
		copyPlan = c.Crow.CopyFull
	}
	return ActDecision{Kind: dram.ActCopy, CopyRow: w, Timing: copyPlan}
}

// RestoresAcrossSubarrays implements Mechanism: a restore-before-evict victim
// found in a shared entry set may belong to any subarray of the sharing group
// (Table.AbsoluteRow).
func (c *CROW) RestoresAcrossSubarrays() bool { return c.EagerRestore && c.Table.ShareGroup > 1 }

// OnActivate implements Mechanism.
func (c *CROW) OnActivate(a dram.Addr, d ActDecision, cycle int64) {
	set := c.Table.Set(a)
	switch d.Kind {
	case dram.ActTwo:
		if d.RestoreFirst {
			c.Count(TableRestore, a, d.RestoreCopyRow, cycle)
			set[d.RestoreCopyRow].lastUse = cycle
			break
		}
		c.Count(TableHit, a, d.CopyRow, cycle)
		set[d.CopyRow].lastUse = cycle
	case dram.ActCopy:
		if e := &set[d.CopyRow]; e.Allocated && e.Kind != EntryCache &&
			e.RegularRow == c.Table.rowIn(a.Row) && e.SubTag == c.Table.SubTag(a) {
			// A demand activation performing a pending remap copy: the
			// entry stays a CROW-ref/RowHammer remap. CopyPending clears
			// at precharge, once restoration of the pair completes.
			c.Count(TableCopy, a, d.CopyRow, cycle)
			e.lastUse = cycle
			break
		}
		c.Count(TableMiss, a, d.CopyRow, cycle)
		c.Count(TableCopy, a, d.CopyRow, cycle)
		if set[d.CopyRow].Allocated {
			c.Count(TableEviction, a, d.CopyRow, cycle)
		}
		set[d.CopyRow] = Entry{
			Allocated:  true,
			RegularRow: c.Table.rowIn(a.Row),
			SubTag:     c.Table.SubTag(a),
			Kind:       EntryCache,
			lastUse:    cycle,
		}
	case dram.ActCopyRow:
		c.Count(TableRefRemap, a, d.CopyRow, cycle)
	case dram.ActSingle:
		if c.Cache && !d.RestoreFirst {
			c.Count(TableMiss, a, -1, cycle)
		}
	}
	if c.HammerThreshold > 0 && d.Kind != dram.ActCopyRow {
		c.countHammer(a, cycle)
	}
}

// OnPrecharge implements Mechanism.
func (c *CROW) OnPrecharge(a dram.Addr, openRow int, fullyRestored bool, cycle int64) {
	probe := a
	probe.Row = openRow
	set := c.Table.Set(probe)
	row := c.Table.rowIn(openRow)
	tag := c.Table.SubTag(probe)
	for w := range set {
		if !set[w].Allocated || set[w].RegularRow != row || set[w].SubTag != tag {
			continue
		}
		if set[w].Kind == EntryCache {
			set[w].FullyRestored = fullyRestored
			return
		}
		if set[w].CopyPending && fullyRestored {
			// While a remap copy is pending, every activation of the
			// regular row is an ACT-c into this way (PlanActivate and
			// the controller's copy path both plan it so); a fully
			// restored precharge therefore means the duplicate is now
			// coherent and redirection may begin.
			set[w].CopyPending = false
			return
		}
	}
}

// OnRefreshRows implements Mechanism. Refresh fully restores the refreshed
// rows, so any CROW-cache pair in the refreshed range becomes fully
// restored; a wrap of the refresh counter also closes one RowHammer
// counting window.
func (c *CROW) OnRefreshRows(channel, rank, lo, hi, startRow, n int, _ int64) {
	g := c.Table.Geo
	for b := lo; b < hi; b++ {
		for row := startRow; row < startRow+n && row < g.RowsPerBank; row++ {
			a := dram.Addr{Channel: channel, Rank: rank, Bank: b, Row: row}
			set := c.Table.Set(a)
			r := c.Table.rowIn(row)
			tag := c.Table.SubTag(a)
			for w := range set {
				if set[w].Allocated && set[w].Kind == EntryCache &&
					set[w].RegularRow == r && set[w].SubTag == tag {
					set[w].FullyRestored = true
				}
			}
		}
	}
	if startRow == 0 && c.hammerCounts[channel] != nil {
		clear(c.hammerCounts[channel])
	}
}

// RefreshMultiplier implements Mechanism: CROW-ref doubles the refresh
// window (64 ms → 128 ms) unless a subarray overflowed its copy rows.
func (c *CROW) RefreshMultiplier() int {
	if c.Ref && !c.Fallback {
		return 2
	}
	return 1
}

// NextCopy implements Mechanism: it pops a pending copy for the channel.
// Ops whose remap entry was already copied by a demand activation (or
// replaced outright) are stale and skipped.
func (c *CROW) NextCopy(channel int, _ int64) (CopyOp, bool) {
	for len(c.pendingCopies[channel]) > 0 {
		op := c.pendingCopies[channel][0]
		c.pendingCopies[channel] = c.pendingCopies[channel][1:]
		set := c.Table.Set(op.Addr)
		e := &set[op.CopyRow]
		if !e.CopyPending || e.Kind == EntryCache ||
			e.RegularRow != c.Table.rowIn(op.Addr.Row) || e.SubTag != c.Table.SubTag(op.Addr) {
			continue
		}
		return op, true
	}
	return CopyOp{}, false
}

// countHammer tracks per-row activation counts within a refresh window and
// remaps the neighbours of a hammered row once it crosses the threshold.
func (c *CROW) countHammer(a dram.Addr, cycle int64) {
	g := c.Table.Geo
	m := c.hammerCounts[a.Channel]
	if m == nil {
		m = make([]int32, g.Ranks*g.Banks*g.RowsPerBank)
		c.hammerCounts[a.Channel] = m
	}
	idx := ((a.Rank*g.Banks)+a.Bank)*g.RowsPerBank + a.Row
	m[idx]++
	// Trigger at the threshold and periodically after, so a victim whose
	// protection was deferred (no safe copy row at the time) is retried.
	if n := int(m[idx]); n < c.HammerThreshold || n%c.HammerThreshold != 0 {
		return
	}
	for _, vr := range []int{a.Row - 1, a.Row + 1} {
		if vr < 0 || vr >= g.RowsPerBank {
			continue
		}
		victim := dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: vr}
		set := c.Table.Set(victim)
		if w := c.Table.Lookup(victim); w >= 0 {
			if set[w].Kind != EntryCache {
				continue // already protected
			}
			// The victim is already duplicated by CROW-cache: convert
			// the entry in place (a second way for the same row would
			// leave two entries racing for lookups). A fully restored
			// pair is already coherent; a partial one must wait for its
			// restore, so protection is retried later.
			if !set[w].FullyRestored {
				continue
			}
			set[w].Kind = EntryHammer
			c.Count(TableHamRemap, victim, w, cycle)
			continue
		}
		w := FreeWay(set)
		if w < 0 {
			w = LRUWay(set)
		}
		if w < 0 {
			continue
		}
		if set[w].Allocated && !set[w].FullyRestored {
			// Evicting a partially-restored cache pair without a
			// full restore would corrupt it (Section 4.1.4); skip
			// and let a later activation re-trigger protection.
			continue
		}
		set[w] = Entry{Allocated: true, RegularRow: c.Table.rowIn(vr), SubTag: c.Table.SubTag(victim), Kind: EntryHammer, FullyRestored: true, CopyPending: true}
		c.pendingCopies[a.Channel] = append(c.pendingCopies[a.Channel], CopyOp{
			Addr: victim, Kind: dram.ActCopy, CopyRow: w, Timing: c.Crow.CopyFull,
		})
		c.Count(TableHamRemap, victim, w, cycle)
	}
}
