// Package chargecache implements the ChargeCache baseline (Hassan et al.,
// HPCA 2016 [26]), which Section 9 of the CROW paper discusses as related
// work: rows that were precharged very recently still hold nearly full
// charge, so re-activating them within a short window is safe at reduced
// tRCD/tRAS. Unlike CROW-cache, the benefit expires within about a
// millisecond as the cells leak; CROW's duplicated rows stay fast
// indefinitely (until evicted), which is why the paper argues CROW-cache
// captures more in-DRAM locality.
package chargecache

import (
	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// Timing deltas for highly-charged rows, from the ChargeCache paper's SPICE
// analysis.
const (
	RCDDelta = -0.23
	RASDelta = -0.17
	// WindowNs is the caching duration: how long after a precharge a row
	// still counts as highly charged (1 ms in the paper).
	WindowNs = 1e6
)

// entry records one recently-precharged row.
type entry struct {
	rank, bank, row int
	closedAt        int64
}

// Mechanism is the ChargeCache controller policy. It satisfies
// core.Mechanism.
type Mechanism struct {
	core.NoOps
	core.Tally // TableHit: an activation found its row highly charged
	T          dram.Timing
	Entries    int // table capacity per channel (128 in the paper)

	base, charged dram.ActTimings
	window        int64
	tables        [][]entry // FIFO per channel
}

// New builds the mechanism with the given per-channel table capacity.
func New(channels int, t dram.Timing, entries int) *Mechanism {
	ras := dram.Scale(t.RAS, RASDelta)
	m := &Mechanism{
		T:       t,
		Entries: entries,
		base:    t.Base(),
		charged: dram.ActTimings{RCD: dram.Scale(t.RCD, RCDDelta), RAS: ras, RASFull: ras, WR: t.WR},
		window:  int64(WindowNs / t.CycleTime()),
		tables:  make([][]entry, channels),
	}
	return m
}

// PlanActivate implements core.Mechanism: rows precharged within the window
// activate at reduced latency.
func (m *Mechanism) PlanActivate(a dram.Addr, cycle int64) core.ActDecision {
	tbl := m.tables[a.Channel]
	for i := len(tbl) - 1; i >= 0; i-- {
		e := tbl[i]
		if cycle-e.closedAt > m.window {
			break // older entries are all expired (FIFO order)
		}
		if e.rank == a.Rank && e.bank == a.Bank && e.row == a.Row {
			return core.ActDecision{Kind: dram.ActSingle, Timing: m.charged}
		}
	}
	return core.ActDecision{Kind: dram.ActSingle, Timing: m.base}
}

// OnActivate implements core.Mechanism.
func (m *Mechanism) OnActivate(a dram.Addr, d core.ActDecision, cycle int64) {
	k := core.TableMiss
	if d.Timing == m.charged {
		k = core.TableHit
	}
	m.Count(k, a, -1, cycle)
}

// OnPrecharge implements core.Mechanism: the closed row becomes highly
// charged for the next window.
func (m *Mechanism) OnPrecharge(a dram.Addr, openRow int, fullyRestored bool, cycle int64) {
	tbl := m.tables[a.Channel]
	// Drop expired entries from the front and an existing copy of this row.
	for len(tbl) > 0 && cycle-tbl[0].closedAt > m.window {
		tbl = tbl[1:]
	}
	for i := range tbl {
		if tbl[i].rank == a.Rank && tbl[i].bank == a.Bank && tbl[i].row == openRow {
			tbl = append(tbl[:i], tbl[i+1:]...)
			break
		}
	}
	tbl = append(tbl, entry{rank: a.Rank, bank: a.Bank, row: openRow, closedAt: cycle})
	if len(tbl) > m.Entries {
		tbl = tbl[len(tbl)-m.Entries:]
	}
	m.tables[a.Channel] = tbl
}
