// Package tldram implements the Tiered-Latency DRAM baseline [58] that
// Section 8.1.4 compares CROW-cache against. TL-DRAM splits each subarray's
// bitlines with isolation transistors into a small low-latency near segment
// and a large far segment, and uses the near rows as an MRU cache of
// recently-activated far rows (copied with a RowClone-style two-step
// activation, for which this model reuses CROW's ACT-c machinery).
package tldram

import (
	"crowdram/internal/circuit"
	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// Mechanism is the TL-DRAM controller policy. It satisfies core.Mechanism.
type Mechanism struct {
	core.NoOps // copies always fully restore: no precharge or refresh tracking
	core.Tally // near-segment hits, misses, copies and evictions

	T        dram.Timing
	NearRows int
	Table    *core.Table

	near dram.ActTimings // activation of a caching near row
	far  dram.ActTimings // activation of an uncached far row
	copy dram.ActTimings // far activation + near-row copy
}

// New derives the near/far timings for the given near-segment size from the
// analytical circuit model (−73 % tRCD / −80 % tRAS at 8 near rows) and
// allocates the near-segment tracking table (one set per subarray, one way
// per near row).
func New(channels int, g dram.Geometry, t dram.Timing, nearRows int) *Mechanism {
	gNear := g
	gNear.CopyRows = nearRows
	m := &Mechanism{T: t, NearRows: nearRows, Table: core.NewTable(channels, gNear)}

	rcdD, rasD, farD := circuit.Default().TLDRAMTimings(nearRows)
	scale := func(base int, d float64) int {
		v := int(float64(base)*(1+d) + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	m.near = dram.ActTimings{
		RCD:     scale(t.RCD, rcdD),
		RAS:     scale(t.RAS, rasD),
		RASFull: scale(t.RAS, rasD),
		WR:      scale(t.WR, rasD), // restoring against the short bitline
	}
	farRAS := scale(t.RAS, farD)
	m.far = dram.ActTimings{
		RCD:     scale(t.RCD, farD),
		RAS:     farRAS,
		RASFull: farRAS,
		WR:      t.WR,
	}
	copyRAS := scale(farRAS, dram.CopyFullRASDelta)
	m.copy = dram.ActTimings{
		RCD:     m.far.RCD,
		RAS:     copyRAS,
		RASFull: copyRAS,
		WR:      t.WR,
	}
	return m
}

// PlanActivate implements core.Mechanism: near-segment hits activate only
// the fast near row; misses copy the far row into the LRU near row.
func (m *Mechanism) PlanActivate(a dram.Addr, cycle int64) core.ActDecision {
	set := m.Table.Set(a)
	if w := m.Table.Lookup(a); w >= 0 && set[w].Kind == core.EntryCache {
		return core.ActDecision{Kind: dram.ActSingle, CopyRow: w, Timing: m.near}
	}
	w := core.FreeWay(set)
	if w < 0 {
		w = core.LRUWay(set)
	}
	if w < 0 {
		return core.ActDecision{Kind: dram.ActSingle, Timing: m.far}
	}
	return core.ActDecision{Kind: dram.ActCopy, CopyRow: w, Timing: m.copy}
}

// OnActivate implements core.Mechanism.
func (m *Mechanism) OnActivate(a dram.Addr, d core.ActDecision, cycle int64) {
	set := m.Table.Set(a)
	switch d.Kind {
	case dram.ActSingle:
		if d.Timing == m.near {
			m.Count(core.TableHit, a, d.CopyRow, cycle)
			set[d.CopyRow].Touch(cycle)
		} else {
			m.Count(core.TableMiss, a, -1, cycle)
		}
	case dram.ActCopy:
		m.Count(core.TableMiss, a, d.CopyRow, cycle)
		m.Count(core.TableCopy, a, d.CopyRow, cycle)
		if set[d.CopyRow].Allocated {
			m.Count(core.TableEviction, a, d.CopyRow, cycle)
		}
		set[d.CopyRow] = core.Entry{
			Allocated:     true,
			RegularRow:    m.Table.Geo.RowInSubarray(a.Row),
			Kind:          core.EntryCache,
			FullyRestored: true,
		}
		set[d.CopyRow].Touch(cycle)
	}
}
