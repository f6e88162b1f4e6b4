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
	if cfg.JitterPct < 0 {
		cfg.JitterPct = 0
	}
	if cfg.JitterPct > 99 {
		cfg.JitterPct = 99
	}
	if cfg.PatternPct <= 0 {
		cfg.PatternPct = 100
	}
	if cfg.BlastPct < 0 {
		cfg.BlastPct = 0
	}
	m := &Model{cfg: cfg, geo: g, rpr: t.RowsPerRef, chans: make([]*chanModel, channels)}
	for ch := range m.chans {
		m.chans[ch] = &chanModel{
			m:      m,
			ch:     ch,
			refRow: make([]int, g.Ranks),
			banks:  make([]*bankState, g.Ranks*g.Banks),
		}
	}
	return m
}

// Observer returns the command observer for one channel.
func (m *Model) Observer(ch int) dram.CommandObserver { return m.chans[ch] }

// Findings merges the per-channel tallies (channels in index order, rows
// sorted within each bank), after the run has quiesced.
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
	sort.Slice(f.Rows, func(i, j int) bool {
		a, b := f.Rows[i], f.Rows[j]
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	return f
}

// String summarizes findings for logs.
func (f Findings) String() string {
	return fmt.Sprintf("flips=%d shielded=%d victim-rows=%d", f.Flips, f.Shielded, len(f.Rows))
}

// chanModel is one channel's replica: disturbance accumulators, lazily drawn
// thresholds, the CROW-hammer shield map, and the refresh-sweep pointer
// mirrored from the controller's command stream (the same replica the
// oracle's refresh-deadline monitor keeps).
type chanModel struct {
	m        *Model
	ch       int
	refRow   []int // next refresh window start, per rank
	banks    []*bankState
	flips    int64
	shielded int64
}

type bankState struct {
	idx     int     // rank*Banks+bank, part of every per-row draw's key
	disturb []int32 // accumulated dose per row, doseUnit fixed-point
	thr     []int32 // per-row threshold, drawn lazily (0 = undrawn)
	flipped []bool  // row already flipped in the current charge interval
	// shield maps (subarray, copy-row way) -> regular row + 1 whose data
	// the way holds after an ACT-c remap; 0 = none.
	shield  []int32
	flipLog map[int]int64
}

func (c *chanModel) bank(rank, bank int) *bankState {
	b := c.banks[rank*c.m.geo.Banks+bank]
	if b == nil {
		g := c.m.geo
		nsub := (g.RowsPerBank + g.RowsPerSubarray - 1) / g.RowsPerSubarray
		b = &bankState{
			idx:     rank*g.Banks + bank,
			disturb: make([]int32, g.RowsPerBank),
			thr:     make([]int32, g.RowsPerBank),
			flipped: make([]bool, g.RowsPerBank),
			shield:  make([]int32, nsub*max(g.CopyRows, 1)),
			flipLog: map[int]int64{},
		}
		c.banks[rank*c.m.geo.Banks+bank] = b
	}
	return b
}

// OnCommand implements dram.CommandObserver.
func (c *chanModel) OnCommand(e dram.CmdEvent) {
	switch e.Cmd {
	case dram.CmdACT, dram.CmdACTt, dram.CmdACTc:
		c.onACT(e)
	case dram.CmdREF:
		rpr := c.m.rpr
		start := c.refRow[e.Addr.Rank]
		for b := 0; b < c.m.geo.Banks; b++ {
			c.refreshWindow(e.Addr.Rank, b, start, rpr)
		}
		c.refRow[e.Addr.Rank] = (start + rpr) % c.m.geo.RowsPerBank
	case dram.CmdREFpb:
		rpr := c.m.rpr
		start := c.refRow[e.Addr.Rank]
		c.refreshWindow(e.Addr.Rank, e.Addr.Bank, start, rpr)
		if e.Addr.Bank == c.m.geo.Banks-1 {
			c.refRow[e.Addr.Rank] = (start + rpr) % c.m.geo.RowsPerBank
		}
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
		b.disturb[r] = 0
		b.flipped[r] = false
	}
}

// onACT handles a regular-row activation (plain ACT, ACT-t, ACT-c): the
// activated row's own charge is restored, its neighbours take a dose, and an
// ACT-c additionally records that the copy-row way now shields the row.
func (c *chanModel) onACT(e dram.CmdEvent) {
	g := c.m.geo
	b := c.bank(e.Addr.Rank, e.Addr.Bank)
	row := e.Addr.Row
	b.disturb[row] = 0
	b.flipped[row] = false
	if e.Cmd == dram.CmdACTc && e.CopyRow >= 0 && g.CopyRows > 0 {
		sub := g.Subarray(row)
		b.shield[sub*g.CopyRows+e.CopyRow] = int32(row) + 1
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
	d := b.disturb[row] + amount
	if d > doseCap {
		d = doseCap
	}
	b.disturb[row] = d
	if b.flipped[row] {
		return
	}
	thr := b.thr[row]
	if thr == 0 {
		thr = c.threshold(b, row)
	}
	if d < thr {
		return
	}
	b.flipped[row] = true
	if c.shieldedRow(b, row) {
		c.shielded++
		return
	}
	c.flips++
	b.flipLog[row]++
}

// shieldedRow reports whether a CROW-hammer remap currently holds the row's
// data in a copy row of its subarray.
func (c *chanModel) shieldedRow(b *bankState, row int) bool {
	g := c.m.geo
	if g.CopyRows == 0 {
		return false
	}
	sub := g.Subarray(row)
	want := int32(row) + 1
	for _, s := range b.shield[sub*g.CopyRows : (sub+1)*g.CopyRows] {
		if s == want {
			return true
		}
	}
	return false
}

// threshold draws the row's HC_first lazily: nominal HCFirst, uniform
// ±JitterPct, scaled by PatternPct for the seeded worst-pattern half.
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
	thr := int64(cfg.HCFirst) * int64(jit) * int64(pat) / 100
	if thr < doseUnit {
		thr = doseUnit
	}
	if thr > doseCap {
		thr = doseCap
	}
	b.thr[row] = int32(thr)
	return int32(thr)
}

// mix is splitmix64's finalizer: a cheap, well-distributed hash.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
