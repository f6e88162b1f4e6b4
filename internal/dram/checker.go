package dram

import (
	"fmt"
	"slices"
)

// Command identifies a DRAM command on a channel's command bus.
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

var cmdNames = [...]string{"ACT", "ACT-t", "ACT-c", "ACT-copyrow", "PRE", "RD", "WR", "REF", "REFpb"}

func (c Command) String() string { return cmdNames[c] }

// IsACT reports whether the command is one of the four activate variants.
func (c Command) IsACT() bool { return c >= CmdACT && c <= CmdACTcr }

// The scopes a rule's two commands must share, and command sets, one bit each.
const (
	perChannel = iota
	perRank
	perBank
	perSub
	dataBus // the channel's data bus, or the rank's with Features.PerRankDataBus

	actSet = 1<<CmdACT | 1<<CmdACTt | 1<<CmdACTc | 1<<CmdACTcr
	preSet = 1 << CmdPRE
	rdSet  = 1 << CmdRD
	wrSet  = 1 << CmdWR
	colSet = rdSet | wrSet
	refSet = 1 << CmdREF
	pbSet  = 1 << CmdREFpb
	anySet = actSet | preSet | colSet | refSet | pbSet
)

// rule is one timing constraint: a command in next waits cycles after p, the nth
// most recent command in prev of its scope instance (plan: its open activation's).
type rule struct {
	name                   string
	prev, next, scope, nth int
	cycles                 func(t *Timing, p *CmdEvent, plan ActTimings) int
}

// rules is the device's timing as data: one row per term of channel.go's Ready*.
var rules = []rule{
	// Not a timing rule: each subarray's last ACT or PRE, its open activation.
	{"state", actSet | preSet, 0, perSub, 1, nil},
	// CROW's activations carry a copy-row address: two command-bus cycles.
	{"command bus", anySet, anySet, perChannel, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return [...]int{1, 2, 2, 2, 1, 1, 1, 1, 1}[p.Cmd] }},
	// Finding 2(i): tRP binds only within the precharged subarray, as the
	// device's ReadyACT does; a conventional bank needs perBank unless MASA.
	{"tRP", preSet, actSet, perSub, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.RP }},
	{"tRP", preSet, pbSet, perBank, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.RP }},
	{"tRP", preSet, refSet, perRank, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.RP }},
	{"tRRD", actSet, actSet, perRank, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.RRD }},
	{"tFAW", actSet, actSet, perRank, 4, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.FAW }},
	{"tRFC", refSet, actSet | refSet | pbSet, perRank, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.RFC }},
	{"tRFCpb", pbSet, actSet | pbSet, perBank, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.RFCpb }},
	{"tRFCpb", pbSet, refSet, perRank, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.RFCpb }}, // a REF covers every bank
	{"tRCD", actSet, colSet, perSub, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return plan.RCD }},
	{"tRAS", actSet, preSet, perSub, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return plan.RAS }},
	{"tRTP", rdSet, preSet, perSub, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.RTP }},
	{"write recovery", wrSet, preSet, perSub, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.CWL + t.BL + plan.WR }},
	{"tCCD", colSet, colSet, perChannel, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.CCD }},
	{"tWTR", wrSet, rdSet, perRank, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return t.CWL + t.BL + t.WTR }},
	{"data bus overlap", colSet, rdSet, dataBus, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return toData(t, p.Cmd) + t.BL - t.CL }},
	{"data bus overlap", colSet, wrSet, dataBus, 1, func(t *Timing, p *CmdEvent, plan ActTimings) int { return toData(t, p.Cmd) + t.BL - t.CWL }},
}

// toData is a column command's latency to its burst, which may not start
// before the last one on its data bus ends.
func toData(t *Timing, c Command) int { return [...]int{CmdRD: t.CL, CmdWR: t.CWL}[c] }

// Checker re-validates a channel's command stream against rules, apart from the
// Channel state machine and without a history: per rule and scope instance it
// keeps the last nth commands of the rule's prev set.
type Checker struct {
	Geo        Geometry
	T          Timing
	MASA       bool
	Violations []string
	rankBus    int          // 1 when every rank has its own data bus
	last       [][]CmdEvent // per rule, nth commands per scope instance, newest first
}

// NewChecker builds a checker for the channel and attaches it. Geometry,
// timing, MASA mode and features come from the channel: they cannot differ.
func NewChecker(c *Channel) *Checker {
	k := &Checker{Geo: c.Geo, T: c.T, MASA: c.MASA, last: make([][]CmdEvent, len(rules))}
	if c.Features.PerRankDataBus {
		k.rankBus = 1
	}
	for i, r := range rules {
		for range k.instances(r.scope) * r.nth {
			k.last[i] = append(k.last[i], CmdEvent{Cmd: CmdPRE, Cycle: -1 << 62})
		}
	}
	c.Attach(k)
	return k
}

// index names a's instance of scope s; instances counts them, as the index of rank Ranks.
func (k *Checker) index(s int, a Addr) int {
	b := a.Rank*k.Geo.Banks + a.Bank
	return [...]int{0, a.Rank, b, b*k.Geo.SubarraysPerBank() + a.Row/k.Geo.RowsPerSubarray, a.Rank * k.rankBus}[s]
}

func (k *Checker) instances(s int) int { return max(1, k.index(s, Addr{Rank: k.Geo.Ranks})) }

// open reports whether, by the state row, a's instance of scope s holds an open subarray.
func (k *Checker) open(s int, a Addr) bool {
	n := k.instances(perSub) / k.instances(s)
	return slices.ContainsFunc(k.last[0][k.index(s, a)*n:][:n], func(e CmdEvent) bool { return e.Cmd.IsACT() })
}

func (k *Checker) fail(e *CmdEvent, format string, args ...any) {
	k.Violations = append(k.Violations, fmt.Sprintf("%v to r%d/b%d row %d @%d: ", e.Cmd, e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Cycle)+fmt.Sprintf(format, args...))
}

// OnCommand implements CommandObserver: it checks e against the state rules
// and every rule whose next set holds e.Cmd, then records it.
func (k *Checker) OnCommand(e CmdEvent) {
	if why := k.Blocked(e.Cmd, e.Addr); why != "" {
		k.fail(&e, "%s", why)
	}
	plan := k.last[0][k.index(perSub, e.Addr)].Plan
	for i, r := range rules {
		h := k.last[i][k.index(r.scope, e.Addr)*r.nth:][:r.nth]
		if p := &h[r.nth-1]; r.next&(1<<e.Cmd) != 0 && e.Cycle < p.Cycle+int64(r.cycles(&k.T, p, plan)) {
			k.fail(&e, "%s violated (%v @%d)", r.name, p.Cmd, p.Cycle)
		}
		if r.prev&(1<<e.Cmd) != 0 {
			copy(h[1:], h)
			h[0] = e
		}
	}
}

// Blocked names the state rule by which no cycle can make cmd to a legal (the
// device's Ready* answer must then be Horizon), or returns "".
func (k *Checker) Blocked(cmd Command, a Addr) string {
	switch {
	case cmd.IsACT() && k.open(perSub, a):
		return "subarray already open"
	case cmd.IsACT() && k.open(perBank, a) && !k.MASA:
		return "bank has another open subarray"
	case 1<<cmd&(colSet|preSet) != 0 && !k.open(perSub, a):
		return "command to closed subarray"
	case 1<<cmd&colSet != 0 && k.last[0][k.index(perSub, a)].Addr.Row != a.Row:
		return "row mismatch"
	case cmd == CmdREFpb && k.open(perBank, a):
		return "REFpb with open bank"
	case cmd == CmdREF && k.open(perRank, a):
		return "REF with open subarray"
	}
	return ""
}
