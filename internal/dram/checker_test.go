package dram

import (
	"slices"
	"strings"
	"testing"
)

// These tests feed deliberately illegal command sequences straight into the
// checker (bypassing the device, which would panic) and assert that each
// violation is caught — guarding against the checker silently passing
// everything.

func newBareChecker() *Checker {
	g := Std(8)
	return NewChecker(NewChannel(g, LPDDR4(Density8Gb, 64, g)))
}

func expectViolation(t *testing.T, k *Checker, substr string) {
	t.Helper()
	for _, v := range k.Violations {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Errorf("expected a %q violation, got %v", substr, k.Violations)
}

func base(k *Checker) ActTimings { return k.T.Base() }

// feed hands the checker one command the way an attached channel would.
func feed(k *Checker, cmd Command, a Addr, cycle int64, plan ActTimings, copyRow int) {
	k.OnCommand(CmdEvent{Cmd: cmd, Addr: a, Cycle: cycle, Plan: plan, CopyRow: copyRow})
}

func TestCheckerCatchesTRCDViolation(t *testing.T) {
	k := newBareChecker()
	a := Addr{Row: 5}
	feed(k, CmdACT, a, 0, base(k), -1)
	feed(k, CmdRD, a, int64(k.T.RCD)-1, ActTimings{}, -1)
	expectViolation(t, k, "tRCD")
}

func TestCheckerCatchesTRASViolation(t *testing.T) {
	k := newBareChecker()
	a := Addr{Row: 5}
	feed(k, CmdACT, a, 0, base(k), -1)
	feed(k, CmdPRE, a, int64(k.T.RAS)-1, ActTimings{}, -1)
	expectViolation(t, k, "tRAS")
}

func TestCheckerCatchesTRPViolation(t *testing.T) {
	k := newBareChecker()
	a := Addr{Row: 5}
	feed(k, CmdACT, a, 0, base(k), -1)
	feed(k, CmdPRE, a, int64(k.T.RAS), ActTimings{}, -1)
	feed(k, CmdACT, a, int64(k.T.RAS)+int64(k.T.RP)-1, base(k), -1)
	expectViolation(t, k, "tRP")
}

func TestCheckerCatchesDoubleOpen(t *testing.T) {
	k := newBareChecker()
	feed(k, CmdACT, Addr{Row: 5}, 0, base(k), -1)
	feed(k, CmdACT, Addr{Row: 6}, 1000, base(k), -1) // same subarray
	expectViolation(t, k, "already open")
}

func TestCheckerCatchesBankSecondSubarrayWithoutMASA(t *testing.T) {
	k := newBareChecker()
	feed(k, CmdACT, Addr{Row: 5}, 0, base(k), -1)
	feed(k, CmdACT, Addr{Row: 5 + 512}, 1000, base(k), -1) // other subarray, same bank
	expectViolation(t, k, "row buffer already open")
}

// A conventional bank has one row buffer, so a PRE's tRP gates the next ACT
// to any of its subarrays; under MASA each subarray precharges on its own.
func TestCheckerTRPBindsBankWithoutMASA(t *testing.T) {
	for _, masa := range []bool{false, true} {
		g := Std(8)
		c := NewChannel(g, LPDDR4(Density8Gb, 64, g))
		c.MASA = masa
		k := NewChecker(c)
		pre := int64(k.T.RAS)
		feed(k, CmdACT, Addr{Row: 5}, 0, base(k), -1)
		feed(k, CmdPRE, Addr{Row: 5}, pre, ActTimings{}, -1)
		feed(k, CmdACT, Addr{Row: 5 + g.RowsPerSubarray}, pre+int64(k.T.RP)-1, base(k), -1)
		if masa {
			if len(k.Violations) != 0 {
				t.Errorf("MASA: another subarray need not wait the PRE's tRP: %v", k.Violations)
			}
			continue
		}
		expectViolation(t, k, "tRP")
	}
}

func TestCheckerAllowsSecondSubarrayWithMASA(t *testing.T) {
	g := Std(8)
	c := NewChannel(g, LPDDR4(Density8Gb, 64, g))
	c.MASA = true
	k := NewChecker(c)
	feed(k, CmdACT, Addr{Row: 5}, 0, base(k), -1)
	feed(k, CmdACT, Addr{Row: 5 + 512}, 1000, base(k), -1)
	if len(k.Violations) != 0 {
		t.Errorf("MASA must allow it: %v", k.Violations)
	}
}

func TestCheckerCatchesColumnToClosedRow(t *testing.T) {
	k := newBareChecker()
	feed(k, CmdRD, Addr{Row: 5}, 100, ActTimings{}, -1)
	expectViolation(t, k, "closed row buffer")
}

func TestCheckerCatchesRowMismatch(t *testing.T) {
	k := newBareChecker()
	feed(k, CmdACT, Addr{Row: 5}, 0, base(k), -1)
	feed(k, CmdRD, Addr{Row: 6}, 1000, ActTimings{}, -1)
	expectViolation(t, k, "row mismatch")
}

func TestCheckerCatchesTRRDViolation(t *testing.T) {
	k := newBareChecker()
	feed(k, CmdACT, Addr{Bank: 0, Row: 5}, 0, base(k), -1)
	feed(k, CmdACT, Addr{Bank: 1, Row: 5}, int64(k.T.RRD)-1, base(k), -1)
	expectViolation(t, k, "tRRD")
}

func TestCheckerCatchesCommandBusConflict(t *testing.T) {
	k := newBareChecker()
	crow := k.T.CROW()
	// ACT-t occupies two command cycles.
	feed(k, CmdACTt, Addr{Bank: 0, Row: 5}, 0, crow.TwoFull, 0)
	feed(k, CmdACT, Addr{Bank: 1, Row: 5}, 1, base(k), -1)
	expectViolation(t, k, "command bus")
}

func TestCheckerCatchesWriteRecoveryViolation(t *testing.T) {
	k := newBareChecker()
	a := Addr{Row: 5}
	feed(k, CmdACT, a, 0, base(k), -1)
	wrAt := int64(k.T.RCD)
	feed(k, CmdWR, a, wrAt, ActTimings{}, -1)
	// PRE right after the write burst, well before write recovery.
	feed(k, CmdPRE, a, wrAt+int64(k.T.CWL)+int64(k.T.BL)+1, ActTimings{}, -1)
	expectViolation(t, k, "write recovery")
}

func TestCheckerCatchesRefreshViolations(t *testing.T) {
	k := newBareChecker()
	feed(k, CmdACT, Addr{Row: 5}, 0, base(k), -1)
	feed(k, CmdREF, Addr{}, 1000, ActTimings{}, -1)
	expectViolation(t, k, "open row buffer")

	k2 := newBareChecker()
	feed(k2, CmdREF, Addr{}, 0, ActTimings{}, -1)
	feed(k2, CmdACT, Addr{Row: 5}, int64(k2.T.RFC)-1, base(k2), -1)
	expectViolation(t, k2, "tRFC")
}

func TestCheckerCatchesREFpbViolations(t *testing.T) {
	k := newBareChecker()
	feed(k, CmdREFpb, Addr{Bank: 2}, 0, ActTimings{}, -1)
	feed(k, CmdACT, Addr{Bank: 2, Row: 5}, int64(k.T.RFCpb)-1, base(k), -1)
	expectViolation(t, k, "tRFCpb")

	// Another bank is free during REFpb.
	k2 := newBareChecker()
	feed(k2, CmdREFpb, Addr{Bank: 2}, 0, ActTimings{}, -1)
	feed(k2, CmdACT, Addr{Bank: 3, Row: 5}, int64(k2.T.RRD), base(k2), -1)
	if len(k2.Violations) != 0 {
		t.Errorf("other banks must be usable during REFpb: %v", k2.Violations)
	}

	// REFpb with the bank open.
	k3 := newBareChecker()
	feed(k3, CmdACT, Addr{Bank: 2, Row: 5}, 0, base(k3), -1)
	feed(k3, CmdREFpb, Addr{Bank: 2}, 1000, ActTimings{}, -1)
	expectViolation(t, k3, "open bank")
}

func TestCheckerCleanOnLegalSequence(t *testing.T) {
	k := newBareChecker()
	a := Addr{Row: 5}
	feed(k, CmdACT, a, 0, base(k), -1)
	feed(k, CmdRD, a, int64(k.T.RCD), ActTimings{}, -1)
	feed(k, CmdPRE, a, int64(k.T.RAS), ActTimings{}, -1)
	feed(k, CmdACT, a, int64(k.T.RAS)+int64(k.T.RP), base(k), -1)
	if len(k.Violations) != 0 {
		t.Errorf("legal sequence flagged: %v", k.Violations)
	}
}

// stdChannel builds a channel of the named standard the way a run does: its
// geometry (with copyRows copy rows), its default timing, its features.
func stdChannel(t testing.TB, name string, copyRows int, masa bool) *Channel {
	t.Helper()
	s, err := StandardByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Geometry(copyRows)
	c := NewChannel(g, s.Timing(Density8Gb, s.RefWindowMS, g))
	c.MASA, c.Features = masa, s.Features
	return c
}

// step is one command fed to a checker; a nil plan means the baseline plan.
type step struct {
	cmd  Command
	a    Addr
	at   int64
	plan *ActTimings
}

func (s step) feed(k *Checker) {
	plan := k.T.Base()
	if s.plan != nil {
		plan = *s.plan
	}
	feed(k, s.cmd, s.a, s.at, plan, -1)
}

// TestEveryRuleCaughtOneCycleEarly gives every row of the rules table a legal
// prefix ending in a command of the row's prev set, then a command of its next
// set one cycle before the row allows it: the checker must name the row. On a
// fresh checker the same command a cycle later must not be flagged by it. The
// cases are on LPDDR4, whose tCCD equals tBL; the read-after-read data-bus
// case lowers tCCD to 1 so that the data bus, not tCCD, binds.
func TestEveryRuleCaughtOneCycleEarly(t *testing.T) {
	g := Std(8)
	tm := LPDDR4(Density8Gb, 64, g)
	a, b1, b2 := Addr{Row: 5}, Addr{Bank: 1, Row: 5}, Addr{Bank: 2, Row: 5}
	short := tm.Base()
	short.RAS = 1 // tRAS out of the way of the column-to-PRE rules
	act, ras, rcd, rrd := step{CmdACT, a, 0, nil}, int64(tm.RAS), int64(tm.RCD), int64(tm.RRD)
	rd, wr := step{CmdRD, a, rcd, nil}, step{CmdWR, a, rcd, nil}
	cases := []struct {
		name   string
		prefix []step
		next   step // at the first legal cycle
		ccd    int  // tCCD override, 0 for none
	}{
		{"state", nil, step{}, 0},
		{"command bus", []step{{CmdACTt, a, 0, nil}}, step{CmdACT, b1, 2, nil}, 0},
		{"tRP", []step{act, {CmdPRE, a, ras, nil}}, step{CmdACT, a, ras + int64(tm.RP), nil}, 0},
		{"tRP", []step{act, {CmdPRE, a, ras, nil}}, step{CmdREFpb, Addr{}, ras + int64(tm.RP), nil}, 0},
		{"tRP", []step{act, {CmdPRE, a, ras, nil}}, step{CmdREF, Addr{}, ras + int64(tm.RP), nil}, 0},
		{"tRRD", []step{act}, step{CmdACT, b1, rrd, nil}, 0},
		{"tFAW", []step{act, {CmdACT, b1, rrd, nil}, {CmdACT, b2, 2 * rrd, nil}, {CmdACT, Addr{Bank: 3, Row: 5}, 3 * rrd, nil}},
			step{CmdACT, Addr{Bank: 4, Row: 5}, max(4*rrd, int64(tm.FAW)), nil}, 0},
		{"tRFC", []step{{CmdREF, Addr{}, 0, nil}}, step{CmdREFpb, b2, int64(tm.RFC), nil}, 0},
		{"tRFCpb", []step{{CmdREFpb, b2, 0, nil}}, step{CmdACT, b2, int64(tm.RFCpb), nil}, 0},
		{"tRFCpb", []step{{CmdREFpb, b2, 0, nil}}, step{CmdREF, Addr{}, int64(tm.RFCpb), nil}, 0},
		{"tRCD", []step{act}, step{CmdRD, a, rcd, nil}, 0},
		{"tRAS", []step{act}, step{CmdPRE, a, ras, nil}, 0},
		{"tRTP", []step{{CmdACT, a, 0, &short}, rd}, step{CmdPRE, a, rcd + int64(tm.RTP), nil}, 0},
		{"write recovery", []step{{CmdACT, a, 0, &short}, wr}, step{CmdPRE, a, rcd + int64(tm.CWL+tm.BL+tm.WR), nil}, 0},
		{"tCCD", []step{act, rd}, step{CmdRD, a, rcd + int64(tm.CCD), nil}, 0},
		{"tWTR", []step{act, wr}, step{CmdRD, a, rcd + int64(tm.CWL+tm.BL+tm.WTR), nil}, 0},
		{"data bus overlap", []step{act, rd}, step{CmdRD, a, rcd + int64(tm.BL), nil}, 1},
		{"data bus overlap", []step{act, rd}, step{CmdWR, a, rcd + int64(tm.CL+tm.BL-tm.CWL), nil}, 0},
	}
	if len(cases) != len(rules) {
		t.Fatalf("%d cases for %d rules: give every row of the table its case", len(cases), len(rules))
	}
	for i, tc := range cases[1:] {
		r := rules[i+1]
		if r.name != tc.name || r.next&(1<<tc.next.cmd) == 0 {
			t.Fatalf("case %d (%s, next %v) is not row %d (%s)", i+1, tc.name, tc.next.cmd, i+1, r.name)
		}
		for _, early := range []bool{true, false} {
			k := NewChecker(NewChannel(g, tm))
			if tc.ccd > 0 {
				k.T.CCD = tc.ccd
			}
			for _, s := range tc.prefix {
				s.feed(k)
			}
			if len(k.Violations) != 0 {
				t.Fatalf("%s: the prefix is not legal: %v", tc.name, k.Violations)
			}
			next := tc.next
			if early {
				next.at--
			}
			next.feed(k)
			flagged := slices.ContainsFunc(k.Violations, func(v string) bool { return strings.Contains(v, tc.name+" violated") })
			if flagged != early {
				t.Errorf("%s, %v at %d (first legal %d): flagged = %v; violations %v", tc.name, next.cmd, next.at, tc.next.at, flagged, k.Violations)
			}
		}
	}
}

// TestCheckerPerRankDataBus: HBM2's pseudo-channels (ranks) each own a data
// bus, so a write burst on one may overlap a read burst on the other; on the
// same pseudo-channel the overlap is flagged. tCCD stays channel-wide.
func TestCheckerPerRankDataBus(t *testing.T) {
	k := NewChecker(stdChannel(t, "hbm2", 8, false))
	feed(k, CmdACT, Addr{Row: 5}, 0, base(k), -1)
	feed(k, CmdACT, Addr{Rank: 1, Row: 5}, 1, base(k), -1)
	feed(k, CmdRD, Addr{Row: 5}, int64(k.T.RCD)+1, ActTimings{}, -1)
	feed(k, CmdRD, Addr{Rank: 1, Row: 5}, int64(k.T.RCD+k.T.CCD), ActTimings{}, -1)
	expectViolation(t, k, "tCCD violated")

	for _, same := range []bool{false, true} {
		k := NewChecker(stdChannel(t, "hbm2", 8, false))
		other := Addr{Rank: 1, Row: 5}
		if same {
			other.Rank = 0
		}
		feed(k, CmdACT, Addr{Row: 5}, 0, base(k), -1)
		feed(k, CmdACT, Addr{Rank: 1, Row: 5}, 1, base(k), -1)
		rd := int64(k.T.RCD) + 1
		feed(k, CmdRD, Addr{Row: 5}, rd, ActTimings{}, -1)
		wr := rd + int64(k.T.CCD) // the write burst starts inside the read's
		if wr+int64(k.T.CWL) >= rd+int64(k.T.CL+k.T.BL) {
			t.Fatalf("hbm2 timing no longer lets the bursts overlap")
		}
		feed(k, CmdWR, other, wr, ActTimings{}, -1)
		if same {
			expectViolation(t, k, "data bus overlap")
		} else if len(k.Violations) != 0 {
			t.Errorf("bursts on different pseudo-channels flagged: %v", k.Violations)
		}
	}
}

// TestCheckerAllocatesNothing: after construction, checking a command costs
// no allocation.
func TestCheckerAllocatesNothing(t *testing.T) {
	k := newBareChecker()
	now := int64(0)
	seq := func() {
		a := Addr{Row: 5}
		feed(k, CmdACT, a, now, base(k), -1)
		feed(k, CmdRD, a, now+int64(k.T.RCD), ActTimings{}, -1)
		feed(k, CmdPRE, a, now+int64(k.T.RAS), ActTimings{}, -1)
		feed(k, CmdREFpb, a, now+int64(k.T.RAS+k.T.RP), ActTimings{}, -1)
		feed(k, CmdREF, Addr{}, now+int64(k.T.RAS+k.T.RP+k.T.RFCpb), ActTimings{}, -1)
		now += int64(k.T.RAS+k.T.RP+k.T.RFCpb+k.T.RFC) + 1
	}
	if n := testing.AllocsPerRun(100, seq); n != 0 {
		t.Errorf("%.1f allocations per five commands, want 0", n)
	}
	if len(k.Violations) != 0 {
		t.Fatalf("the sequence must be legal: %v", k.Violations[:1])
	}
}
