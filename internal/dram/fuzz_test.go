package dram

import (
	"math/rand"
	"slices"
	"testing"
)

// commandPlans are the activation variants a fuzzed or random driver may
// issue, with their timing plans.
func commandPlans(tm Timing) []struct {
	kind ActKind
	t    ActTimings
} {
	crow := tm.CROW()
	return []struct {
		kind ActKind
		t    ActTimings
	}{
		{ActSingle, tm.Base()},
		{ActTwo, crow.TwoFull},
		{ActTwo, crow.TwoPartial},
		{ActCopy, crow.Copy},
		{ActCopyRow, tm.Base()},
	}
}

// TestRandomCommandStream drives the device of every standard, with and
// without MASA, with randomly chosen commands, issuing each one only when the
// device reports it legal, and lets the independent checker validate the whole
// stream. This exercises corner interleavings (refresh vs activation, MRA
// plans, per-bank refresh, per-rank data buses, MASA) that the targeted tests
// do not. After every issued command the Ready* contract is checked in the
// state that command left.
func TestRandomCommandStream(t *testing.T) {
	for _, masa := range []bool{false, true} {
		name := "conventional"
		if masa {
			name = "masa"
		}
		t.Run(name, func(t *testing.T) {
			for _, std := range StandardNames() {
				t.Run(std, func(t *testing.T) {
					c := stdChannel(t, std, 8, masa)
					g := c.Geo
					k := NewChecker(c)
					rng := rand.New(rand.NewSource(99))
					plans := commandPlans(c.T)

					issued, checked := 0, 0
					for now := int64(0); issued < 1000 && now < 2_000_000; now++ {
						c.Tick(now)
						// Rows from four subarrays of a bank, so MASA and the
						// bank-level rules matter.
						a := Addr{
							Rank: rng.Intn(g.Ranks),
							Bank: rng.Intn(g.Banks),
							Row:  rng.Intn(4)*g.RowsPerSubarray + rng.Intn(16),
							Col:  rng.Intn(g.ColumnsPerRow()),
						}
						if checked < issued {
							checked = issued
							probe := a
							if open := c.OpenRow(probe); open >= 0 && rng.Intn(2) == 0 {
								probe.Row = open
							}
							checkReadyContract(t, c, k, probe)
						}
						switch rng.Intn(6) {
						case 0:
							p := plans[rng.Intn(len(plans))]
							if now >= c.ReadyACT(a) {
								copyRow := -1
								if p.kind != ActSingle {
									copyRow = rng.Intn(g.CopyRows)
								}
								c.ACT(a, now, p.kind, p.t, copyRow)
								issued++
							}
						case 1, 2, 3:
							if open := c.OpenRow(a); open >= 0 {
								a.Row = open
								// RD, WR or PRE to the open row.
								if op := contractOps(c, c.T)[rng.Intn(3)+1]; now >= op.ready(a) {
									op.issue(a, now)
									issued++
								}
							}
						case 4:
							if now >= c.ReadyRefresh(a.Rank, 0, g.Banks) && rng.Intn(50) == 0 {
								c.REF(a.Rank, now)
								issued++
							}
						case 5:
							if now >= c.ReadyRefresh(a.Rank, a.Bank, a.Bank+1) && rng.Intn(50) == 0 {
								c.REFpb(a.Rank, a.Bank, now)
								issued++
							}
						}
					}
					if issued < 1000 {
						t.Fatalf("only %d commands issued; device livelocked?", issued)
					}
					for _, v := range k.Violations {
						t.Errorf("checker: %s", v)
					}
					if c.Stats.Activations() == 0 || c.Stats.PRE == 0 || c.Stats.RD == 0 || c.Stats.WR == 0 {
						t.Errorf("stream must include activity: %+v", c.Stats)
					}
				})
			}
		})
	}
}

// contractOp is one command as a (ready, issue) pair over an address, so the
// contract below is stated once for all six.
type contractOp struct {
	cmd   Command
	ready func(a Addr) int64
	issue func(a Addr, now int64)
}

func contractOps(c *Channel, tm Timing) []contractOp {
	return []contractOp{
		{CmdACT, c.ReadyACT, func(a Addr, now int64) { c.ACT(a, now, ActSingle, tm.Base(), -1) }},
		{CmdRD, c.ReadyRD, func(a Addr, now int64) { c.RD(a, now) }},
		{CmdWR, c.ReadyWR, c.WR},
		{CmdPRE, c.ReadyPRE, func(a Addr, now int64) { c.PRE(a, now) }},
		{CmdREF, func(a Addr) int64 { return c.ReadyRefresh(a.Rank, 0, c.Geo.Banks) },
			func(a Addr, now int64) { c.REF(a.Rank, now) }},
		{CmdREFpb, func(a Addr) int64 { return c.ReadyRefresh(a.Rank, a.Bank, a.Bank+1) },
			func(a Addr, now int64) { c.REFpb(a.Rank, a.Bank, now) }},
	}
}

// checkReadyContract asserts the device's when-not-whether contract in the
// channel's current state, for every command over each given address: issuing
// it a cycle before Ready* panics (at any cycle, when Ready* is Horizon), and
// Ready* is Horizon exactly when the checker, which has seen every command,
// names a state rule that only a state change can satisfy. It also checks the
// open list and the per-bank summaries the Ready* answers rest on against a
// scan of every subarray, and against the checker.
func checkReadyContract(t *testing.T, c *Channel, k *Checker, addrs ...Addr) {
	t.Helper()
	for _, op := range contractOps(c, c.T) {
		for _, a := range addrs {
			at := op.ready(a)
			if why := k.Blocked(op.cmd, a); (at == Horizon) != (why != "") {
				t.Fatalf("%v r%d/b%d row %d: ready %d, but the checker's state rules say %q", op.cmd, a.Rank, a.Bank, a.Row, at, why)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v b%d row %d: issuing at %d, before ready cycle %d, must panic", op.cmd, a.Bank, a.Row, at-1, at)
					}
				}()
				op.issue(a, at-1)
			}()
		}
	}
	// The open list — order included — and every bank summary, against a scan
	// of every subarray; the index accessors against the addressed ones.
	var scanned []int
	checkerOpen := 0
	for b := 0; b*c.subsPerBank < len(c.subs); b++ {
		r, bankID := b/c.Geo.Banks, b%c.Geo.Banks
		bk := &c.ranks[r].banks[bankID]
		var actReady int64
		firstOpen := -1
		for i := b * c.subsPerBank; i < (b+1)*c.subsPerBank; i++ {
			actReady = max(actReady, c.subs[i].actReady)
			if c.subs[i].openRow >= 0 {
				scanned = append(scanned, i)
				if firstOpen < 0 {
					firstOpen = c.subs[i].openRow
				}
			}
			if k.Blocked(CmdPRE, Addr{Rank: r, Bank: bankID, Row: (i - b*c.subsPerBank) * c.Geo.RowsPerSubarray}) == "" {
				checkerOpen++
			}
		}
		if actReady != bk.actReady {
			t.Fatalf("bank %d: tracked actReady %d, scan says %d", bankID, bk.actReady, actReady)
		}
		if got := c.OpenRowInBank(r, bankID); got != firstOpen {
			t.Fatalf("bank %d: OpenRowInBank %d, scan says %d", bankID, got, firstOpen)
		}
	}
	if !slices.Equal(c.Open(), scanned) || len(scanned) != checkerOpen {
		t.Fatalf("open subarrays: list %v, scan %v, %d open to the checker", c.Open(), scanned, checkerOpen)
	}
	for _, a := range addrs {
		i := c.SubIndex(a)
		if c.OpenRowAt(i) != c.OpenRow(a) || c.LastUseAt(i) != c.sub(a).lastUse || c.ReadyPREAt(i) != c.ReadyPRE(a) {
			t.Fatalf("b%d row %d: the accessors at index %d disagree with the addressed ones", a.Bank, a.Row, i)
		}
	}
}

// driveCommandStream interprets data as a command script against a fresh
// channel: the first byte picks the standard and MASA, then every three bytes
// pick a time advance, a command, and an address.
// Before each command the device's Ready* contract is checked in the
// state the prefix left; then the command issues at the later of the script's
// cycle and its ready cycle — so most commands issue on the exact cycle the
// device first calls legal — unless only a state change could unblock it. The
// properties under test are that the contract holds after any legal prefix,
// that no legal-by-the-device sequence panics, and that the independent
// checker agrees the whole stream is clean.
func driveCommandStream(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 4 {
		return
	}
	stds := StandardNames()
	c := stdChannel(t, stds[int(data[0]>>1)%len(stds)], 8, data[0]&1 != 0)
	g := c.Geo
	k := NewChecker(c)
	plans := commandPlans(c.T)

	now := int64(0)
	for i := 1; i+2 < len(data); i += 3 {
		op, sel, adv := data[i], data[i+1], data[i+2]
		// Advance time by 1..1024 cycles so slow constraints (tRFC,
		// write recovery) can clear within short inputs.
		now += 1 + int64(adv)*4
		a := Addr{
			Rank: int(op/6) % g.Ranks,
			Bank: int(sel) % g.Banks,
			Row:  int(sel>>3)%4*g.RowsPerSubarray + int(sel>>5),
			Col:  int(op>>3) % g.ColumnsPerRow(),
		}
		probe := a
		if open := c.OpenRow(a); open >= 0 {
			probe.Row = open
		}
		checkReadyContract(t, c, k, a, probe)
		// at returns the issue cycle for a command ready at `ready`, moving
		// the script's clock to it; ok is false when time cannot help.
		at := func(ready int64) (int64, bool) {
			if ready == Horizon {
				return 0, false
			}
			now = max(now, ready)
			c.Tick(now)
			return now, true
		}
		switch op % 6 {
		case 0:
			p := plans[int(sel)%len(plans)]
			if now, ok := at(c.ReadyACT(a)); ok {
				copyRow := -1
				if p.kind != ActSingle {
					copyRow = int(adv) % g.CopyRows
				}
				c.ACT(a, now, p.kind, p.t, copyRow)
			}
		case 1:
			if now, ok := at(c.ReadyRD(probe)); ok {
				c.RD(probe, now)
			}
		case 2:
			if now, ok := at(c.ReadyWR(probe)); ok {
				c.WR(probe, now)
			}
		case 3:
			if now, ok := at(c.ReadyPRE(probe)); ok {
				c.PRE(probe, now)
			}
		case 4:
			if now, ok := at(c.ReadyRefresh(a.Rank, 0, g.Banks)); ok {
				c.REF(a.Rank, now)
			}
		case 5:
			if now, ok := at(c.ReadyRefresh(a.Rank, a.Bank, a.Bank+1)); ok {
				c.REFpb(a.Rank, a.Bank, now)
			}
		}
	}
	for _, v := range k.Violations {
		t.Errorf("checker: %s", v)
	}
}

// FuzzCommandStream fuzzes the device/checker pair of every standard with
// arbitrary command scripts (go test -fuzz=FuzzCommandStream ./internal/dram).
func FuzzCommandStream(f *testing.F) {
	// Seed corpus, on every standard with and without MASA: an
	// activate-read-precharge burst, a refresh-heavy script, a multi-open
	// script, and CROW activate mixes reaching HBM2's second rank.
	for std := range StandardNames() {
		for masa := range 2 {
			cfg := byte(std<<1 | masa)
			f.Add([]byte{cfg, 0x00, 0x09, 0x10, 0x01, 0x09, 0x20, 0x03, 0x09, 0x30})
			f.Add([]byte{cfg, 0x04, 0x00, 0xff, 0x05, 0x01, 0xff, 0x04, 0x02, 0xff})
			f.Add([]byte{cfg, 0x00, 0x08, 0x20, 0x00, 0x10, 0x20, 0x01, 0x08, 0x20})
			f.Add([]byte{cfg, 0x00, 0x01, 0x40, 0x06, 0x02, 0x40, 0x00, 0x03, 0x40, 0x01, 0x0b, 0x40, 0x07, 0x0b, 0x40})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		driveCommandStream(t, data)
	})
}
