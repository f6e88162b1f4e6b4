package oracle

import (
	"slices"

	"crowdram/internal/dram"
)

// cell is one written column of a row: the version of the last write to it.
type cell struct {
	col int32
	ver uint32
}

// versions is a row's column → write-version store: the written columns in
// ascending order, none at version 0 (a column absent from it holds its initial
// data), so two rows hold the same data exactly when their stores are equal. It
// is nil until the row's first write; most rows are only ever read.
type versions []cell

// find returns col's position in v, or the one it would be inserted at.
func (v versions) find(col int) (int, bool) {
	for i, c := range v {
		if int(c.col) >= col {
			return i, int(c.col) == col
		}
	}
	return len(v), false
}

func (v versions) get(col int) uint32 {
	if i, ok := v.find(col); ok {
		return v[i].ver
	}
	return 0
}

// set makes ver the version of col; version 0 returns it to its initial data.
func (v *versions) set(col int, ver uint32) {
	switch i, found := v.find(col); {
	case found && ver != 0:
		(*v)[i].ver = ver
	case found:
		*v = slices.Delete(*v, i, i+1)
	case ver != 0:
		*v = slices.Insert(*v, i, cell{int32(col), ver})
	}
}

// rowData is the shadow content of one physical row: which logical (regular)
// row's data it holds, the write version of each column it holds, and whether
// its cells are only partially restored. A regular row's entry also carries
// the device-level truth for its own logical address — the version of the last
// write to each column — whichever physical row that write reached.
type rowData struct {
	owner   int32 // logical row whose data this row holds; -1: a copy row nothing was copied into yet
	partial bool
	cells   versions
	want    versions // regular rows only: the logical row's write log
}

// copyFrom makes r a duplicate of regular row reg, whose address is row.
func (r *rowData) copyFrom(reg *rowData, row int) {
	r.owner, r.partial = int32(row), reg.partial
	r.cells = append(r.cells[:0], reg.cells...)
}

// openAct is the oracle's view of one subarray's in-flight activation. The ACT
// resolves, once, the physical rows it wires to the row buffer — serving (the
// regular row, or the copy row when it is activated alone) and, for a two-row
// activation, second — and the regular row's entry, which holds the write log;
// column commands and the precharge follow these pointers. All three are nil
// when DataChecks is off.
type openAct struct {
	open                 bool
	row                  int // the addressed regular row
	cols                 int // column commands served so far
	serving, second, log *rowData
}

// slabRows is how many rowData entries one allocation holds.
const slabRows = 256

// channelState is the oracle's model of one channel. It implements
// dram.CommandObserver.
type channelState struct {
	o  *Oracle
	ch int

	// open holds every subarray's activation, in (rank, bank, subarray) order.
	// rows finds a physical row's shadow state by rowKey; entries are carved
	// from slab and never move.
	open []openAct
	rows map[int]*rowData
	slab []rowData

	// Refresh sweep replica: next row window per rank, and per bank (in
	// (rank, bank) order) the cycle each row group was last refreshed, grown
	// to the highest group the sweep has reached: the groups past its length,
	// like all rows at the boot instant, count as refreshed at cycle 0.
	refRow  []int
	lastRef [][]int64

	// stats mirrors the dram.Stats fields a command stream determines.
	stats dram.Stats
}

// rowKey packs a bank (rank*Banks + bank) and a physical row index of it into
// the key of rows. Regular rows use their bank row index; copy row `way` of
// subarray `sub` follows them at RowsPerBank + sub*CopyRows + way.
func (s *channelState) rowKey(bank, physRow int) int { return bank*s.o.rowsPerBank + physRow }

// row returns the shadow state of the physical row at key, creating it on
// first touch holding logical row owner's data, clean.
func (s *channelState) row(key int, owner int) *rowData {
	r := s.rows[key]
	if r == nil {
		if len(s.slab) == cap(s.slab) {
			s.slab = make([]rowData, 0, slabRows)
		}
		s.slab = append(s.slab, rowData{owner: int32(owner)})
		r = &s.slab[len(s.slab)-1]
		s.rows[key] = r
	}
	return r
}

// act returns the activation slot of the subarray containing a.Row.
func (s *channelState) act(a *dram.Addr) *openAct {
	return &s.open[(a.Rank*s.o.cfg.Geo.Banks+a.Bank)*s.o.subsPerBank+a.Row>>s.o.subShift]
}

// outside reports whether e names something the configuration does not have:
// a rank, bank, row, column or copy row past the geometry, or an activation
// kind the model does not know. The copy-row operand counts only under
// DataChecks: the idealized mechanisms name copy rows no geometry holds.
func (s *channelState) outside(e *dram.CmdEvent) bool {
	g, a := &s.o.cfg.Geo, &e.Addr
	in := func(v, n int) bool { return uint(v) < uint(n) }
	switch e.Cmd {
	case dram.CmdREF:
		return !in(a.Rank, g.Ranks)
	case dram.CmdREFpb:
		return !in(a.Rank, g.Ranks) || !in(a.Bank, g.Banks)
	case dram.CmdRD, dram.CmdWR:
		return !in(a.Rank, g.Ranks) || !in(a.Bank, g.Banks) || !in(a.Row, g.RowsPerBank) || !in(a.Col, s.o.columns)
	case dram.CmdPRE:
		return !in(a.Rank, g.Ranks) || !in(a.Bank, g.Banks) || !in(a.Row, g.RowsPerBank)
	case dram.CmdACT, dram.CmdACTt, dram.CmdACTc, dram.CmdACTcr:
		return !in(a.Rank, g.Ranks) || !in(a.Bank, g.Banks) || !in(a.Row, g.RowsPerBank) ||
			!in(int(e.Kind), int(dram.ActCopyRow)+1) ||
			s.o.cfg.DataChecks && e.Kind != dram.ActSingle && !in(e.CopyRow, g.CopyRows)
	}
	return false
}

// OnCommand implements dram.CommandObserver.
func (s *channelState) OnCommand(e dram.CmdEvent) {
	if s.outside(&e) {
		// The device indexes its state by these operands and would have
		// panicked, so the oracle is watching a device of another shape.
		s.o.violate(s.ch, "oracle-desync", "%v of r%d/b%d/%d col %d, copy row %d, is outside the geometry, at cycle %d",
			e.Cmd, e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Addr.Col, e.CopyRow, e.Cycle)
		return
	}
	switch e.Cmd {
	case dram.CmdACT, dram.CmdACTt, dram.CmdACTc, dram.CmdACTcr:
		s.onACT(&e)
	case dram.CmdRD, dram.CmdWR:
		s.onColumn(&e)
	case dram.CmdPRE:
		s.onPRE(&e)
	case dram.CmdREF:
		s.onREF(&e)
	case dram.CmdREFpb:
		s.onREFpb(&e)
	}
}

func (s *channelState) onACT(e *dram.CmdEvent) {
	switch e.Kind {
	case dram.ActSingle:
		s.stats.ACT++
		s.stats.ActRasSingle += int64(e.Plan.RAS)
	case dram.ActTwo:
		s.stats.ACTTwo++
		s.stats.ActRasMRA += int64(e.Plan.RAS)
	case dram.ActCopy:
		s.stats.ACTCopy++
		s.stats.ActRasMRA += int64(e.Plan.RAS)
	case dram.ActCopyRow:
		s.stats.ACTCopyRow++
		s.stats.ActRasSingle += int64(e.Plan.RAS)
	}

	act := s.act(&e.Addr)
	*act = openAct{open: true, row: e.Addr.Row}
	if !s.o.cfg.DataChecks {
		return
	}

	g := &s.o.cfg.Geo
	bank := e.Addr.Rank*g.Banks + e.Addr.Bank
	reg := s.row(s.rowKey(bank, e.Addr.Row), e.Addr.Row)
	var cp *rowData
	if e.Kind != dram.ActSingle {
		cp = s.row(s.rowKey(bank, g.RowsPerBank+e.Addr.Row>>s.o.subShift*g.CopyRows+e.CopyRow), -1)
	}
	act.serving, act.log = reg, reg
	switch e.Kind {
	case dram.ActSingle:
		// A single-row activation senses the regular row alone; if its
		// cells were left partially restored, the fast plans read them
		// unsafely and any plan destroys the paired copy's coherence.
		if reg.partial {
			s.o.violate(s.ch, "partial-single-activation",
				"ACT of partially-restored row r%d/b%d/%d at cycle %d",
				e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Cycle)
		}
	case dram.ActTwo:
		act.second = cp
		if int(cp.owner) != e.Addr.Row || !slices.Equal(reg.cells, cp.cells) {
			s.o.violate(s.ch, "incoherent-pair",
				"ACT-t of row r%d/b%d/%d with copy row %d holding row %d data (valid=%v) at cycle %d",
				e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.CopyRow, cp.owner, cp.owner >= 0, e.Cycle)
			// Resync the shadow pair so one bug is one violation, not a
			// cascade.
			cp.copyFrom(reg, e.Addr.Row)
		}
		// A partially-restored pair holds weakened charge; activating it
		// with the fully-restored sensing latency is a data hazard
		// (Section 4.1.3: partial pairs need the ACT-t-partial RCD).
		if (reg.partial || cp.partial) && e.Plan.RCD < s.o.crow.TwoPartial.RCD {
			s.o.violate(s.ch, "fast-partial-sensing",
				"ACT-t of partial pair r%d/b%d/%d+%d planned tRCD %d < required %d at cycle %d",
				e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.CopyRow, e.Plan.RCD, s.o.crow.TwoPartial.RCD, e.Cycle)
		}
	case dram.ActCopy:
		act.second = cp
		if reg.partial {
			s.o.violate(s.ch, "copy-from-partial",
				"ACT-c copies partially-restored row r%d/b%d/%d at cycle %d",
				e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Cycle)
		}
		cp.copyFrom(reg, e.Addr.Row)
	case dram.ActCopyRow:
		act.serving = cp
		switch {
		case cp.owner < 0:
			if len(reg.want) == 0 && !reg.partial && len(reg.cells) == 0 {
				// Boot-time remap: a profile-loaded CROW-ref mapping
				// installed before the first access. The copy row holds
				// whatever the row held at boot; adopt it.
				cp.owner = int32(e.Addr.Row)
			} else {
				s.o.violate(s.ch, "stale-remap",
					"redirect of row r%d/b%d/%d to never-copied copy row %d at cycle %d",
					e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.CopyRow, e.Cycle)
				cp.copyFrom(reg, e.Addr.Row)
			}
		case int(cp.owner) != e.Addr.Row:
			s.o.violate(s.ch, "stale-remap",
				"redirect of row r%d/b%d/%d to copy row %d holding row %d data at cycle %d",
				e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.CopyRow, cp.owner, e.Cycle)
			cp.copyFrom(reg, e.Addr.Row)
		}
		if cp.partial {
			s.o.violate(s.ch, "partial-single-activation",
				"ACT of partially-restored copy row %d (row r%d/b%d/%d) at cycle %d",
				e.CopyRow, e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Cycle)
		}
	}
}

func (s *channelState) onColumn(e *dram.CmdEvent) {
	bl := int64(s.o.cfg.T.BL)
	if e.Cmd == dram.CmdRD {
		s.stats.RD++
		s.stats.RDBusyCycles += bl
	} else {
		s.stats.WR++
		s.stats.WRBusyCycles += bl
	}

	act := s.act(&e.Addr)
	if !act.open {
		// The device itself panics on column commands to a closed bank,
		// so this can only mean the oracle missed the activation.
		s.o.violate(s.ch, "oracle-desync", "%v to closed subarray r%d/b%d at cycle %d",
			e.Cmd, e.Addr.Rank, e.Addr.Bank, e.Cycle)
		return
	}
	if act.row != e.Addr.Row {
		// Likewise: the device serves column commands to the open row only.
		s.o.violate(s.ch, "oracle-desync", "%v of r%d/b%d/%d while row %d is the one open, at cycle %d",
			e.Cmd, e.Addr.Rank, e.Addr.Bank, e.Addr.Row, act.row, e.Cycle)
		return
	}
	act.cols++
	if cap := s.o.cfg.Cap; cap > 0 && act.cols > cap {
		s.o.violate(s.ch, "cap-exceeded",
			"%v is column command %d > cap %d for activation of r%d/b%d/%d at cycle %d",
			e.Cmd, act.cols, cap, e.Addr.Rank, e.Addr.Bank, act.row, e.Cycle)
	}
	if !s.o.cfg.DataChecks {
		return
	}

	col := e.Addr.Col
	if e.Cmd == dram.CmdWR {
		ver := act.log.want.get(col) + 1
		act.log.want.set(col, ver)
		act.serving.cells.set(col, ver)
		if act.second != nil {
			act.second.cells.set(col, ver)
		}
		return
	}
	// RD: the row buffer serves whatever the connected rows hold; all
	// connected rows agree (they were sensed together), so check the first.
	if have, want := act.serving.cells.get(col), act.log.want.get(col); have != want {
		s.o.violate(s.ch, "stale-read",
			"RD r%d/b%d/%d col %d returns version %d, last write was %d, at cycle %d",
			e.Addr.Rank, e.Addr.Bank, e.Addr.Row, col, have, want, e.Cycle)
		act.serving.cells.set(col, want) // resync
	}
}

func (s *channelState) onPRE(e *dram.CmdEvent) {
	s.stats.PRE++
	act := s.act(&e.Addr)
	if act.open && s.o.cfg.DataChecks {
		act.serving.partial = !e.FullyRestored
		if act.second != nil {
			act.second.partial = !e.FullyRestored
		}
	}
	act.open = false
}

// refreshWindow models the architectural effect of refreshing rows
// [start, start+n) of one bank: the row group's deadline clock restarts, the
// rows (and any copy rows holding their data — CROW refreshes pairs
// together, Section 4.1.4) come out fully restored.
func (s *channelState) refreshWindow(rank, bank, start, n int, cycle int64) {
	g := &s.o.cfg.Geo
	bi := rank*g.Banks + bank
	if rpr := s.o.cfg.T.RowsPerRef; rpr > 0 {
		dl := s.o.deadline()
		last := s.lastRef[bi]
		for g0 := start / rpr; g0 <= (start+n-1)/rpr && g0 < s.o.groups; g0++ {
			for len(last) <= g0 {
				last = append(last, 0)
			}
			if s.o.cfg.RefreshMultiplier > 0 && cycle-last[g0] > dl {
				s.o.violate(s.ch, "refresh-deadline",
					"r%d/b%d rows %d..%d refreshed @%d, %d cycles after previous refresh @%d (deadline %d)",
					rank, bank, g0*rpr, (g0+1)*rpr-1, cycle,
					cycle-last[g0], last[g0], dl)
			}
			last[g0] = cycle
		}
		s.lastRef[bi] = last
	}
	if !s.o.cfg.DataChecks {
		return
	}
	for row := start; row < start+n && row < g.RowsPerBank; row++ {
		if r := s.rows[s.rowKey(bi, row)]; r != nil {
			r.partial = false
		}
	}
	// Copy rows live in the same subarray as the regular rows they pair
	// with, so only the touched subarrays need scanning.
	for sub := start >> s.o.subShift; sub <= (start+n-1)>>s.o.subShift; sub++ {
		for way := 0; way < g.CopyRows; way++ {
			r := s.rows[s.rowKey(bi, g.RowsPerBank+sub*g.CopyRows+way)]
			if r != nil && int(r.owner) >= start && int(r.owner) < start+n {
				r.partial = false
			}
		}
	}
}

func (s *channelState) onREF(e *dram.CmdEvent) {
	s.stats.REF++
	g := &s.o.cfg.Geo
	rpr := s.o.cfg.T.RowsPerRef
	start := s.refRow[e.Addr.Rank]
	for b := 0; b < g.Banks; b++ {
		s.refreshWindow(e.Addr.Rank, b, start, rpr, e.Cycle)
	}
	s.refRow[e.Addr.Rank] = (start + rpr) % g.RowsPerBank
}

func (s *channelState) onREFpb(e *dram.CmdEvent) {
	s.stats.REFpb++
	g := &s.o.cfg.Geo
	rpr := s.o.cfg.T.RowsPerRef
	start := s.refRow[e.Addr.Rank]
	s.refreshWindow(e.Addr.Rank, e.Addr.Bank, start, rpr, e.Cycle)
	// The controller sweeps banks round-robin, advancing the row window
	// once every bank has been refreshed at the current window.
	if e.Addr.Bank == g.Banks-1 {
		s.refRow[e.Addr.Rank] = (start + rpr) % g.RowsPerBank
	}
}
