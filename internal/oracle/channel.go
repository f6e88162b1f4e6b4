package oracle

import "crowdram/internal/dram"

// subKey identifies one subarray (the unit that holds one open activation).
type subKey struct{ rank, bank, sub int }

// rowKey identifies one physical row of a bank. Regular rows use their bank
// row index; copy rows are encoded past the regular rows (see copyID).
type rowKey struct{ rank, bank, row int }

// openAct is the oracle's view of one in-flight activation.
type openAct struct {
	row     int // the addressed regular row
	kind    dram.ActKind
	copyRow int
	plan    dram.ActTimings
	cols    int // column commands served so far
}

// rowData is the shadow content of one physical row: which logical (regular)
// row's data it holds, the write version of each column it holds, and whether
// its cells are only partially restored.
type rowData struct {
	valid   bool // meaningful for copy rows; regular rows are always valid
	owner   int  // logical regular-row index whose data this row holds
	partial bool
	cells   map[int]uint64 // column -> write version (absent = initial data)
}

// logState is the device-level truth for one logical (regular-row) address:
// the version of the last write to each column.
type logState struct {
	want    map[int]uint64
	written bool
}

// statCounts mirrors the command-count fields of dram.Stats.
type statCounts struct {
	ACT, ACTTwo, ACTCopy, ACTCopyRow int64
	PRE, RD, WR, REF, REFpb          int64
	ActRasSingle, ActRasMRA          int64
	RDBusy, WRBusy                   int64
}

// channelState is the oracle's model of one channel. It implements
// dram.CommandObserver.
type channelState struct {
	o  *Oracle
	ch int

	open map[subKey]*openAct
	rows map[rowKey]*rowData
	logs map[rowKey]*logState

	// Refresh sweep replica: next row window per rank, per-bank round-robin
	// pointer, and the cycle each row group was last refreshed (all rows
	// count as refreshed at cycle 0, the boot instant).
	refRow  []int
	refBank int
	lastRef [][][]int64 // [rank][bank][group]

	stats statCounts
}

// copyID encodes the physical row index of copy row `way` of subarray `sub`.
func (s *channelState) copyID(sub, way int) int {
	g := s.o.cfg.Geo
	return g.RowsPerBank + sub*g.CopyRows + way
}

// reg returns the shadow state of a regular row, creating the default state
// (valid, owning its own address, clean) on first touch.
func (s *channelState) reg(a dram.Addr) *rowData {
	k := rowKey{a.Rank, a.Bank, a.Row}
	r := s.rows[k]
	if r == nil {
		r = &rowData{valid: true, owner: a.Row, cells: map[int]uint64{}}
		s.rows[k] = r
	}
	return r
}

// cp returns the shadow state of copy row `way` of a's subarray, creating
// the default state (invalid: content unknown until copied into) on first
// touch.
func (s *channelState) cp(a dram.Addr, way int) *rowData {
	k := rowKey{a.Rank, a.Bank, s.copyID(a.Subarray(s.o.cfg.Geo), way)}
	r := s.rows[k]
	if r == nil {
		r = &rowData{owner: -1, cells: map[int]uint64{}}
		s.rows[k] = r
	}
	return r
}

// log returns the device-level write log of logical row a.Row.
func (s *channelState) log(a dram.Addr) *logState {
	k := rowKey{a.Rank, a.Bank, a.Row}
	l := s.logs[k]
	if l == nil {
		l = &logState{want: map[int]uint64{}}
		s.logs[k] = l
	}
	return l
}

func cloneCells(m map[int]uint64) map[int]uint64 {
	c := make(map[int]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func cellsEqual(a, b map[int]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// connected returns the physical rows wired to the row buffer by the open
// activation: the regular row, the copy row, or both.
func (s *channelState) connected(a dram.Addr, act *openAct) []*rowData {
	switch act.kind {
	case dram.ActTwo, dram.ActCopy:
		return []*rowData{s.reg(dram.Addr{Rank: a.Rank, Bank: a.Bank, Row: act.row}), s.cp(a, act.copyRow)}
	case dram.ActCopyRow:
		return []*rowData{s.cp(a, act.copyRow)}
	default:
		return []*rowData{s.reg(dram.Addr{Rank: a.Rank, Bank: a.Bank, Row: act.row})}
	}
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
		return !in(a.Rank, g.Ranks) || !in(a.Bank, g.Banks) || !in(a.Row, g.RowsPerBank) || !in(a.Col, g.ColumnsPerRow())
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
		s.onACT(e)
	case dram.CmdRD, dram.CmdWR:
		s.onColumn(e)
	case dram.CmdPRE:
		s.onPRE(e)
	case dram.CmdREF:
		s.onREF(e)
	case dram.CmdREFpb:
		s.onREFpb(e)
	}
}

func (s *channelState) onACT(e dram.CmdEvent) {
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

	k := subKey{e.Addr.Rank, e.Addr.Bank, e.Addr.Subarray(s.o.cfg.Geo)}
	act := &openAct{row: e.Addr.Row, kind: e.Kind, copyRow: e.CopyRow, plan: e.Plan}
	s.open[k] = act
	if !s.o.cfg.DataChecks {
		return
	}

	reg := s.reg(e.Addr)
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
		cp := s.cp(e.Addr, e.CopyRow)
		if !cp.valid || cp.owner != e.Addr.Row || !cellsEqual(reg.cells, cp.cells) {
			s.o.violate(s.ch, "incoherent-pair",
				"ACT-t of row r%d/b%d/%d with copy row %d holding row %d data (valid=%v) at cycle %d",
				e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.CopyRow, cp.owner, cp.valid, e.Cycle)
			// Resync the shadow pair so one bug is one violation, not a
			// cascade.
			cp.valid, cp.owner, cp.cells = true, e.Addr.Row, cloneCells(reg.cells)
			cp.partial = reg.partial
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
		if reg.partial {
			s.o.violate(s.ch, "copy-from-partial",
				"ACT-c copies partially-restored row r%d/b%d/%d at cycle %d",
				e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Cycle)
		}
		cp := s.cp(e.Addr, e.CopyRow)
		cp.valid, cp.owner, cp.cells = true, e.Addr.Row, cloneCells(reg.cells)
		cp.partial = reg.partial
	case dram.ActCopyRow:
		cp := s.cp(e.Addr, e.CopyRow)
		switch {
		case !cp.valid:
			if !s.log(e.Addr).written && !reg.partial && len(reg.cells) == 0 {
				// Boot-time remap: a profile-loaded CROW-ref mapping
				// installed before the first access. The copy row holds
				// whatever the row held at boot; adopt it.
				cp.valid, cp.owner = true, e.Addr.Row
			} else {
				s.o.violate(s.ch, "stale-remap",
					"redirect of row r%d/b%d/%d to never-copied copy row %d at cycle %d",
					e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.CopyRow, e.Cycle)
				cp.valid, cp.owner, cp.cells = true, e.Addr.Row, cloneCells(reg.cells)
				cp.partial = reg.partial
			}
		case cp.owner != e.Addr.Row:
			s.o.violate(s.ch, "stale-remap",
				"redirect of row r%d/b%d/%d to copy row %d holding row %d data at cycle %d",
				e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.CopyRow, cp.owner, e.Cycle)
			cp.owner, cp.cells = e.Addr.Row, cloneCells(reg.cells)
			cp.partial = reg.partial
		}
		if cp.partial {
			s.o.violate(s.ch, "partial-single-activation",
				"ACT of partially-restored copy row %d (row r%d/b%d/%d) at cycle %d",
				e.CopyRow, e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Cycle)
		}
	}
}

func (s *channelState) onColumn(e dram.CmdEvent) {
	bl := int64(s.o.cfg.T.BL)
	if e.Cmd == dram.CmdRD {
		s.stats.RD++
		s.stats.RDBusy += bl
	} else {
		s.stats.WR++
		s.stats.WRBusy += bl
	}

	k := subKey{e.Addr.Rank, e.Addr.Bank, e.Addr.Subarray(s.o.cfg.Geo)}
	act := s.open[k]
	if act == nil {
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

	logi := s.log(e.Addr)
	if e.Cmd == dram.CmdWR {
		logi.want[e.Addr.Col]++
		logi.written = true
		for _, r := range s.connected(e.Addr, act) {
			r.cells[e.Addr.Col] = logi.want[e.Addr.Col]
		}
		return
	}
	// RD: the row buffer serves whatever the connected rows hold; all
	// connected rows agree (they were sensed together), so check the first.
	serving := s.connected(e.Addr, act)[0]
	if have, want := serving.cells[e.Addr.Col], logi.want[e.Addr.Col]; have != want {
		s.o.violate(s.ch, "stale-read",
			"RD r%d/b%d/%d col %d returns version %d, last write was %d, at cycle %d",
			e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Addr.Col, have, want, e.Cycle)
		serving.cells[e.Addr.Col] = want // resync
	}
}

func (s *channelState) onPRE(e dram.CmdEvent) {
	s.stats.PRE++
	k := subKey{e.Addr.Rank, e.Addr.Bank, e.Addr.Subarray(s.o.cfg.Geo)}
	act := s.open[k]
	delete(s.open, k)
	if act == nil || !s.o.cfg.DataChecks {
		return
	}
	for _, r := range s.connected(e.Addr, act) {
		r.partial = !e.FullyRestored
	}
}

// refreshWindow models the architectural effect of refreshing rows
// [start, start+n) of one bank: the row group's deadline clock restarts, the
// rows (and any copy rows holding their data — CROW refreshes pairs
// together, Section 4.1.4) come out fully restored.
func (s *channelState) refreshWindow(rank, bank, start, n int, cycle int64) {
	g := s.o.cfg.Geo
	if rpr := s.o.cfg.T.RowsPerRef; rpr > 0 {
		dl := s.o.deadline()
		for g0 := start / rpr; g0 <= (start+n-1)/rpr && g0 < len(s.lastRef[rank][bank]); g0++ {
			if s.o.cfg.RefreshMultiplier > 0 && cycle-s.lastRef[rank][bank][g0] > dl {
				s.o.violate(s.ch, "refresh-deadline",
					"r%d/b%d rows %d..%d refreshed @%d, %d cycles after previous refresh @%d (deadline %d)",
					rank, bank, g0*rpr, (g0+1)*rpr-1, cycle,
					cycle-s.lastRef[rank][bank][g0], s.lastRef[rank][bank][g0], dl)
			}
			s.lastRef[rank][bank][g0] = cycle
		}
	}
	if !s.o.cfg.DataChecks {
		return
	}
	for row := start; row < start+n && row < g.RowsPerBank; row++ {
		if r := s.rows[rowKey{rank, bank, row}]; r != nil {
			r.partial = false
		}
	}
	// Copy rows live in the same subarray as the regular rows they pair
	// with, so only the touched subarrays need scanning.
	for sub := g.Subarray(start); sub <= g.Subarray(start+n-1); sub++ {
		for way := 0; way < g.CopyRows; way++ {
			r := s.rows[rowKey{rank, bank, s.copyID(sub, way)}]
			if r != nil && r.valid && r.owner >= start && r.owner < start+n {
				r.partial = false
			}
		}
	}
}

func (s *channelState) onREF(e dram.CmdEvent) {
	s.stats.REF++
	g := s.o.cfg.Geo
	rpr := s.o.cfg.T.RowsPerRef
	start := s.refRow[e.Addr.Rank]
	for b := 0; b < g.Banks; b++ {
		s.refreshWindow(e.Addr.Rank, b, start, rpr, e.Cycle)
	}
	s.refRow[e.Addr.Rank] = (start + rpr) % g.RowsPerBank
}

func (s *channelState) onREFpb(e dram.CmdEvent) {
	s.stats.REFpb++
	g := s.o.cfg.Geo
	rpr := s.o.cfg.T.RowsPerRef
	start := s.refRow[e.Addr.Rank]
	s.refreshWindow(e.Addr.Rank, e.Addr.Bank, start, rpr, e.Cycle)
	// The controller sweeps banks round-robin, advancing the row window
	// once every bank has been refreshed at the current window.
	if e.Addr.Bank == g.Banks-1 {
		s.refRow[e.Addr.Rank] = (start + rpr) % g.RowsPerBank
	}
}
