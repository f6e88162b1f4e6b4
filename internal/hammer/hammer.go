// Package hammer is the RowHammer attack/defense workbench: a deterministic
// bit-flip model driven by the DRAM command stream (the same observer bus
// the correctness oracle rides), and a handful of named mitigations
// (PARA, CROW-hammer remap, refresh-rate scaling) that wrap a core.Mechanism
// at the controller's activation-decision point.
//
// The flip model follows HammerSim's system-level approach: every row draws
// a per-row first-flip hammer count (HC_first) from a seeded distribution,
// aggressor activations dose their ±1 and ±2 neighbours (the ±2 "blast
// radius" at a reduced rate), and a row whose accumulated dose crosses its
// threshold within one refresh window records a flip. Data-pattern
// dependence is a seeded per-row class (the trace-driven simulator carries
// no real data — the oracle's shadow memory stores write versions — so the
// worst-case/best-case pattern split is a deterministic proxy keyed on the
// row address). Everything is derived with splitmix64 from Config.Seed, so
// runs are byte-identical at any worker count.
package hammer

import (
	"fmt"
	"slices"
	"sort"

	"crowdram/internal/dram"
)

// Config parameterizes the bit-flip model. The zero HCFirst disables it.
type Config struct {
	// Seed drives every per-row draw (thresholds, pattern classes).
	Seed int64
	// HCFirst is the nominal per-side activation count at which the most
	// vulnerable rows flip (the distribution's low edge is
	// HCFirst*(100-JitterPct)%*PatternPct%).
	HCFirst int
	// JitterPct spreads per-row thresholds uniformly over ±JitterPct%.
	JitterPct int
	// BlastPct is the dose a ±2 neighbour receives per aggressor
	// activation, as a percentage of the ±1 dose.
	BlastPct int
	// PatternPct scales the threshold of worst-pattern rows (half the
	// rows, seeded): a value below 100 makes them flip earlier.
	PatternPct int
}

// doseUnit is the disturbance one ±1 aggressor activation deposits; ±2
// activations deposit BlastPct (percent of doseUnit). Thresholds are held in
// the same fixed-point units so integer math stays exact.
const doseUnit = 100

// doseCap saturates accumulators well below int32 overflow.
const doseCap = 1 << 30

// FlipRow is one victim row's flip tally.
type FlipRow struct {
	Channel int   `json:"channel"`
	Rank    int   `json:"rank"`
	Bank    int   `json:"bank"`
	Row     int   `json:"row"`
	Flips   int64 `json:"flips"`
}

// Findings is the model's end-of-run summary. Rows are sorted by
// (channel, rank, bank, row) so output is deterministic.
type Findings struct {
	// Flips counts threshold crossings on rows whose data was exposed
	// (not remapped to a copy row at crossing time).
	Flips int64
	// Shielded counts crossings on rows whose data a CROW-hammer remap
	// had moved to a copy row — the physical row disturbs, the data
	// survives.
	Shielded int64
	// Rows lists every victim row that recorded at least one exposed flip.
	Rows []FlipRow
}

// Model is the per-system flip model. Attach one Observer per channel; each
// channel's state is touched only by that channel's observer.
type Model struct {
	cfg   Config
	geo   dram.Geometry
	rpr   int // rows refreshed per REF/REFpb
	chans []*chanModel
}

// New builds a flip model for a system of identical channels.
func New(cfg Config, channels int, g dram.Geometry, t dram.Timing) *Model {
	cfg.JitterPct = min(max(cfg.JitterPct, 0), 99)
	cfg.BlastPct = max(cfg.BlastPct, 0)
	if cfg.PatternPct <= 0 {
		cfg.PatternPct = 100
	}
	m := &Model{cfg: cfg, geo: g, rpr: t.RowsPerRef, chans: make([]*chanModel, channels)}
	for ch := range m.chans {
		m.chans[ch] = &chanModel{
			m:     m,
			ch:    ch,
			banks: make([]*bankState, g.Ranks*g.Banks),
		}
	}
	return m
}

// Observer returns the command observer for one channel.
func (m *Model) Observer(ch int) dram.CommandObserver { return m.chans[ch] }

// Findings merges the per-channel tallies after the run has quiesced:
// channels, then banks in index order (rank-major), then rows sorted within
// each bank, which is the (channel, rank, bank, row) order with no sort of
// its own.
func (m *Model) Findings() Findings {
	var f Findings
	for _, c := range m.chans {
		f.Flips += c.flips
		f.Shielded += c.shielded
		for bi, b := range c.banks {
			if b == nil || len(b.flipLog) == 0 {
				continue
			}
			rank, bank := bi/m.geo.Banks, bi%m.geo.Banks
			rows := make([]int, 0, len(b.flipLog))
			for r := range b.flipLog {
				rows = append(rows, r)
			}
			sort.Ints(rows)
			for _, r := range rows {
				f.Rows = append(f.Rows, FlipRow{Channel: c.ch, Rank: rank, Bank: bank, Row: r, Flips: b.flipLog[r]})
			}
		}
	}
	return f
}

// String summarizes findings for logs.
func (f Findings) String() string {
	return fmt.Sprintf("flips=%d shielded=%d victim-rows=%d", f.Flips, f.Shielded, len(f.Rows))
}

// chanModel is one channel's state: disturbance accumulators and the
// CROW-hammer shield map. A refresh restores the rows its command reports.
type chanModel struct {
	m        *Model
	ch       int
	banks    []*bankState
	flips    int64
	shielded int64
}

type bankState struct {
	idx int // rank*Banks+bank, part of every per-row draw's key
	// subs holds each subarray's row state, allocated on its first dose or
	// ACT-c: an attack reaches a few subarrays of a bank, and a nil one
	// reads as undosed, unflipped and unshielded.
	subs    []*subState
	flipLog map[int]int64
}

type subState struct {
	rows []rowState
	// shield maps a copy-row way to the regular row + 1 whose data the way
	// holds after an ACT-c remap; 0 = none.
	shield []int32
}

type rowState struct {
	dose    int32 // accumulated since the last restore, doseUnit fixed-point
	flipped bool  // already flipped in the current charge interval
}

func (c *chanModel) bank(rank, bank int) *bankState {
	b := c.banks[rank*c.m.geo.Banks+bank]
	if b == nil {
		g := c.m.geo
		b = &bankState{
			idx:     rank*g.Banks + bank,
			subs:    make([]*subState, g.SubarraysPerBank()),
			flipLog: map[int]int64{},
		}
		c.banks[rank*c.m.geo.Banks+bank] = b
	}
	return b
}

// sub returns the state of the subarray holding row, allocating it.
func (c *chanModel) sub(b *bankState, row int) *subState {
	g := c.m.geo
	s := b.subs[g.Subarray(row)]
	if s == nil {
		s = &subState{rows: make([]rowState, g.RowsPerSubarray), shield: make([]int32, g.CopyRows)}
		b.subs[g.Subarray(row)] = s
	}
	return s
}

// restore returns a row's charge: its dose and flip latch reset. A subarray
// never dosed has nothing to reset.
func (c *chanModel) restore(b *bankState, row int) {
	g := c.m.geo
	if s := b.subs[g.Subarray(row)]; s != nil {
		s.rows[g.RowInSubarray(row)] = rowState{}
	}
}

// OnCommand implements dram.CommandObserver.
func (c *chanModel) OnCommand(e dram.CmdEvent) {
	switch e.Cmd {
	case dram.CmdACT, dram.CmdACTt, dram.CmdACTc:
		c.onACT(e)
	case dram.CmdREF:
		for b := 0; b < c.m.geo.Banks; b++ {
			c.refreshWindow(e.Addr.Rank, b, e.Addr.Row, c.m.rpr)
		}
	case dram.CmdREFpb:
		c.refreshWindow(e.Addr.Rank, e.Addr.Bank, e.Addr.Row, c.m.rpr)
	}
}

// refreshWindow models refreshing rows [start, start+n) of one bank: the
// rows' charge is restored, so their accumulated disturbance and per-window
// flip latch reset. Banks never touched by an activation have no state to
// reset.
func (c *chanModel) refreshWindow(rank, bank, start, n int) {
	b := c.banks[rank*c.m.geo.Banks+bank]
	if b == nil {
		return
	}
	for r := start; r < start+n && r < c.m.geo.RowsPerBank; r++ {
		c.restore(b, r)
	}
}

// onACT handles a regular-row activation (plain ACT, ACT-t, ACT-c): the
// activated row's own charge is restored, its neighbours take a dose, and an
// ACT-c additionally records that the copy-row way now shields the row.
func (c *chanModel) onACT(e dram.CmdEvent) {
	b := c.bank(e.Addr.Rank, e.Addr.Bank)
	row := e.Addr.Row
	c.restore(b, row)
	if e.Cmd == dram.CmdACTc && e.CopyRow >= 0 && c.m.geo.CopyRows > 0 {
		c.sub(b, row).shield[e.CopyRow] = int32(row) + 1
	}
	c.dose(b, row-1, doseUnit)
	c.dose(b, row+1, doseUnit)
	if c.m.cfg.BlastPct > 0 {
		c.dose(b, row-2, int32(c.m.cfg.BlastPct))
		c.dose(b, row+2, int32(c.m.cfg.BlastPct))
	}
}

// dose deposits disturbance on a victim row and records a flip if the row
// crosses its threshold for the first time in its current charge interval.
func (c *chanModel) dose(b *bankState, row int, amount int32) {
	if row < 0 || row >= c.m.geo.RowsPerBank {
		return
	}
	s := c.sub(b, row)
	rs := &s.rows[c.m.geo.RowInSubarray(row)]
	rs.dose = min(rs.dose+amount, doseCap)
	if rs.flipped || rs.dose < c.threshold(b, row) {
		return
	}
	rs.flipped = true
	if slices.Contains(s.shield, int32(row)+1) {
		c.shielded++
		return
	}
	c.flips++
	b.flipLog[row]++
}

// threshold is the row's HC_first, a pure function of the seed and the row's
// address: nominal HCFirst, uniform ±JitterPct, scaled by PatternPct for the
// seeded worst-pattern half.
func (c *chanModel) threshold(b *bankState, row int) int32 {
	cfg := c.m.cfg
	h := mix(uint64(cfg.Seed) ^ uint64(c.ch)<<48 ^ uint64(b.idx)<<32 ^ uint64(row))
	jit := 100 - cfg.JitterPct
	if span := 2*cfg.JitterPct + 1; span > 1 {
		jit += int(h % uint64(span))
	}
	pat := 100
	if cfg.PatternPct < 100 && (h>>33)&1 == 0 {
		pat = cfg.PatternPct
	}
	return int32(min(max(int64(cfg.HCFirst)*int64(jit)*int64(pat)/100, doseUnit), doseCap))
}

// mix is splitmix64's finalizer: a cheap, well-distributed hash.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
