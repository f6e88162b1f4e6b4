package dram

import "fmt"

// Command identifies a DRAM command in the checker's recorded history.
type Command int

// Command encodings. The four activate variants mirror ActKind.
const (
	CmdACT Command = iota
	CmdACTt
	CmdACTc
	CmdACTcr
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
	CmdREFpb
)

const cmdACTBase = CmdACT

var cmdNames = [...]string{"ACT", "ACT-t", "ACT-c", "ACT-copyrow", "PRE", "RD", "WR", "REF", "REFpb"}

func (c Command) String() string { return cmdNames[c] }

// IsACT reports whether the command is one of the four activate variants.
func (c Command) IsACT() bool { return c >= CmdACT && c <= CmdACTcr }

// Checker independently re-validates a channel's command stream against the
// raw history, using a separate implementation of the timing rules from the
// Channel state machine. Any violation is reported through the Violations
// slice.
type Checker struct {
	Geo  Geometry
	T    Timing
	MASA bool

	history    []CmdEvent
	Violations []string
}

// NewChecker builds a checker for the channel and attaches it, so every
// subsequently issued command is validated. The checker takes its geometry,
// timing, and MASA mode from the channel — there is exactly one construction
// path, so they cannot disagree.
func NewChecker(c *Channel) *Checker {
	k := &Checker{Geo: c.Geo, T: c.T, MASA: c.MASA}
	c.Attach(k)
	return k
}

func (k *Checker) fail(e CmdEvent, format string, args ...any) {
	msg := fmt.Sprintf("%v to r%d/b%d row %d @%d: %s", e.Cmd, e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Cycle, fmt.Sprintf(format, args...))
	k.Violations = append(k.Violations, msg)
}

func sameSub(g Geometry, a, b Addr) bool {
	return a.Rank == b.Rank && a.Bank == b.Bank && a.Subarray(g) == b.Subarray(g)
}

// OnCommand implements CommandObserver: it validates the command against
// the history so far and appends it.
func (k *Checker) OnCommand(e CmdEvent) {
	k.validate(e)
	k.history = append(k.history, e)
}

// openACT returns the most recent ACT to the subarray of a that has not been
// followed by a PRE of the same subarray, or nil.
func (k *Checker) openACT(a Addr) *CmdEvent {
	for i := len(k.history) - 1; i >= 0; i-- {
		e := &k.history[i]
		if !sameSub(k.Geo, e.Addr, a) {
			continue
		}
		if e.Cmd == CmdPRE {
			return nil
		}
		if e.Cmd.IsACT() {
			return e
		}
	}
	return nil
}

func (k *Checker) validate(e CmdEvent) {
	switch {
	case e.Cmd.IsACT():
		k.validateACT(e)
	case e.Cmd == CmdRD || e.Cmd == CmdWR:
		k.validateCol(e)
	case e.Cmd == CmdPRE:
		k.validatePRE(e)
	case e.Cmd == CmdREF:
		k.validateREF(e)
	case e.Cmd == CmdREFpb:
		k.validateREFpb(e)
	}
	k.validateCmdBus(e)
}

func (k *Checker) validateCmdBus(e CmdEvent) {
	if len(k.history) == 0 {
		return
	}
	prev := k.history[len(k.history)-1]
	width := int64(1)
	if prev.Cmd.IsACT() && prev.Cmd != CmdACT {
		width = 2 // CROW activates carry a copy-row address cycle
	}
	if e.Cycle < prev.Cycle+width {
		k.fail(e, "command bus conflict with %v @%d", prev.Cmd, prev.Cycle)
	}
}

func (k *Checker) validateACT(e CmdEvent) {
	if open := k.openACT(e.Addr); open != nil {
		k.fail(e, "subarray already open (row %d @%d)", open.Addr.Row, open.Cycle)
	}
	// CROW activate variants carry a copy-row operand that must address one
	// of the subarray's copy rows. (Geometries without copy rows — e.g. the
	// idealized mechanisms — are exempt: their kinds are fictional.)
	if e.Cmd != CmdACT && k.Geo.CopyRows > 0 && (e.CopyRow < 0 || e.CopyRow >= k.Geo.CopyRows) {
		k.fail(e, "copy-row operand %d out of range [0,%d)", e.CopyRow, k.Geo.CopyRows)
	}
	var rankACTs []int64
	for i := len(k.history) - 1; i >= 0; i-- {
		h := &k.history[i]
		if h.Addr.Rank != e.Addr.Rank && h.Cmd != CmdREF {
			continue
		}
		switch {
		case h.Cmd == CmdPRE && sameSub(k.Geo, h.Addr, e.Addr):
			if e.Cycle < h.Cycle+int64(k.T.RP) {
				k.fail(e, "tRP violated (PRE @%d)", h.Cycle)
			}
		case h.Cmd == CmdREF && h.Addr.Rank == e.Addr.Rank:
			if e.Cycle < h.Cycle+int64(k.T.RFC) {
				k.fail(e, "tRFC violated (REF @%d)", h.Cycle)
			}
		case h.Cmd == CmdREFpb && h.Addr.Rank == e.Addr.Rank && h.Addr.Bank == e.Addr.Bank:
			if e.Cycle < h.Cycle+int64(k.T.RFCpb) {
				k.fail(e, "tRFCpb violated (REFpb @%d)", h.Cycle)
			}
		case h.Cmd.IsACT() && h.Addr.Rank == e.Addr.Rank:
			if len(rankACTs) == 0 && e.Cycle < h.Cycle+int64(k.T.RRD) {
				k.fail(e, "tRRD violated (ACT @%d)", h.Cycle)
			}
			rankACTs = append(rankACTs, h.Cycle)
			if len(rankACTs) == 4 {
				if e.Cycle < rankACTs[3]+int64(k.T.FAW) {
					k.fail(e, "tFAW violated (4th ACT @%d)", rankACTs[3])
				}
			}
		case h.Cmd.IsACT() && !k.MASA && h.Addr.Bank == e.Addr.Bank && h.Addr.Rank == e.Addr.Rank:
			// handled by openACT per subarray; bank-level single-open
			// checked below.
		}
		if len(rankACTs) >= 4 && h.Cycle < e.Cycle-int64(k.T.FAW)-int64(k.T.RFC) {
			break
		}
	}
	if !k.MASA {
		// No other subarray of the same bank may be open.
		for s := 0; s < k.Geo.SubarraysPerBank(); s++ {
			probe := e.Addr
			probe.Row = s * k.Geo.RowsPerSubarray
			if probe.Subarray(k.Geo) == e.Addr.Subarray(k.Geo) {
				continue
			}
			if open := k.openACT(probe); open != nil {
				k.fail(e, "bank has another open subarray (row %d)", open.Addr.Row)
				break
			}
		}
	}
}

func (k *Checker) validateCol(e CmdEvent) {
	open := k.openACT(e.Addr)
	if open == nil {
		k.fail(e, "column command to closed subarray")
		return
	}
	if open.Addr.Row != e.Addr.Row {
		k.fail(e, "row mismatch: open %d", open.Addr.Row)
	}
	if open.Plan.RCD > 1 && e.Cycle < open.Cycle+int64(open.Plan.RCD) {
		k.fail(e, "tRCD violated (ACT @%d, RCD %d)", open.Cycle, open.Plan.RCD)
	}
	var lastData int64 = -1 << 62
	for i := len(k.history) - 1; i >= 0; i-- {
		h := &k.history[i]
		if h.Cmd == CmdRD || h.Cmd == CmdWR {
			if e.Cycle < h.Cycle+int64(k.T.CCD) {
				k.fail(e, "tCCD violated (%v @%d)", h.Cmd, h.Cycle)
			}
			if e.Cmd == CmdRD && h.Cmd == CmdWR && h.Addr.Rank == e.Addr.Rank {
				wrEnd := h.Cycle + int64(k.T.CWL) + int64(k.T.BL)
				if e.Cycle < wrEnd+int64(k.T.WTR) {
					k.fail(e, "tWTR violated (WR @%d)", h.Cycle)
				}
			}
			// Data-bus overlap.
			var start int64
			if h.Cmd == CmdRD {
				start = h.Cycle + int64(k.T.CL)
			} else {
				start = h.Cycle + int64(k.T.CWL)
			}
			end := start + int64(k.T.BL)
			if end > lastData {
				lastData = end
			}
			var myStart int64
			if e.Cmd == CmdRD {
				myStart = e.Cycle + int64(k.T.CL)
			} else {
				myStart = e.Cycle + int64(k.T.CWL)
			}
			if myStart < end && myStart+int64(k.T.BL) > start {
				k.fail(e, "data bus overlap with %v @%d", h.Cmd, h.Cycle)
			}
			break // only the most recent column command can conflict given tCCD >= ordering
		}
	}
	// tWTR needs the most recent WR even if a RD intervened.
	if e.Cmd == CmdRD {
		for i := len(k.history) - 1; i >= 0; i-- {
			h := &k.history[i]
			if h.Cmd == CmdWR && h.Addr.Rank == e.Addr.Rank {
				wrEnd := h.Cycle + int64(k.T.CWL) + int64(k.T.BL)
				if e.Cycle < wrEnd+int64(k.T.WTR) {
					k.fail(e, "tWTR violated (WR @%d)", h.Cycle)
				}
				break
			}
		}
	}
}

func (k *Checker) validatePRE(e CmdEvent) {
	open := k.openACT(e.Addr)
	if open == nil {
		k.fail(e, "PRE to closed subarray")
		return
	}
	if open.Plan.RAS > 1 && e.Cycle < open.Cycle+int64(open.Plan.RAS) {
		k.fail(e, "tRAS violated (ACT @%d, RAS %d)", open.Cycle, open.Plan.RAS)
	}
	for i := len(k.history) - 1; i >= 0; i-- {
		h := &k.history[i]
		if h.Cycle < open.Cycle {
			break
		}
		if !sameSub(k.Geo, h.Addr, e.Addr) {
			continue
		}
		if h.Cmd == CmdRD && e.Cycle < h.Cycle+int64(k.T.RTP) {
			k.fail(e, "tRTP violated (RD @%d)", h.Cycle)
		}
		if h.Cmd == CmdWR {
			wrEnd := h.Cycle + int64(k.T.CWL) + int64(k.T.BL)
			wr := int64(open.Plan.WR)
			if wr <= 1 {
				wr = int64(k.T.WR)
			}
			if e.Cycle < wrEnd+wr {
				k.fail(e, "write recovery violated (WR @%d)", h.Cycle)
			}
		}
	}
}

func (k *Checker) validateREFpb(e CmdEvent) {
	for i := len(k.history) - 1; i >= 0; i-- {
		h := &k.history[i]
		if h.Addr.Rank != e.Addr.Rank {
			continue
		}
		if h.Cmd == CmdREFpb && h.Addr.Bank == e.Addr.Bank {
			if e.Cycle < h.Cycle+int64(k.T.RFCpb) {
				k.fail(e, "tRFCpb back-to-back violated (REFpb @%d)", h.Cycle)
			}
			break
		}
	}
	// The bank's subarrays must be closed and past tRP.
	for i := len(k.history) - 1; i >= 0; i-- {
		h := &k.history[i]
		if h.Addr.Rank != e.Addr.Rank || h.Addr.Bank != e.Addr.Bank {
			continue
		}
		if h.Cmd == CmdPRE {
			if e.Cycle < h.Cycle+int64(k.T.RP) {
				k.fail(e, "REFpb before tRP of PRE @%d", h.Cycle)
			}
			break
		}
		if h.Cmd.IsACT() {
			k.fail(e, "REFpb with open bank (ACT row %d @%d)", h.Addr.Row, h.Cycle)
			break
		}
	}
}

func (k *Checker) validateREF(e CmdEvent) {
	for i := len(k.history) - 1; i >= 0; i-- {
		h := &k.history[i]
		if h.Cmd == CmdREF && h.Addr.Rank == e.Addr.Rank {
			if e.Cycle < h.Cycle+int64(k.T.RFC) {
				k.fail(e, "tRFC back-to-back violated (REF @%d)", h.Cycle)
			}
			break
		}
	}
	// Every subarray of the rank must be closed and past tRP.
	byBankSub := map[[2]int]bool{}
	for i := len(k.history) - 1; i >= 0; i-- {
		h := &k.history[i]
		if h.Addr.Rank != e.Addr.Rank {
			continue
		}
		key := [2]int{h.Addr.Bank, h.Addr.Subarray(k.Geo)}
		if byBankSub[key] {
			continue
		}
		if h.Cmd == CmdPRE {
			byBankSub[key] = true
			if e.Cycle < h.Cycle+int64(k.T.RP) {
				k.fail(e, "REF before tRP of PRE @%d", h.Cycle)
			}
		}
		if h.Cmd.IsACT() {
			if !byBankSub[key] {
				k.fail(e, "REF with open subarray (ACT row %d @%d)", h.Addr.Row, h.Cycle)
			}
			byBankSub[key] = true
		}
	}
}
