package dram

import (
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
	expectViolation(t, k, "another open subarray")
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
	expectViolation(t, k, "closed subarray")
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
	expectViolation(t, k, "open subarray")

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
