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

// TestRandomCommandStream drives the device with randomly chosen commands,
// issuing each one only when the device reports it legal, and lets the
// independent checker validate the whole stream. This exercises corner
// interleavings (refresh vs activation, MRA plans, per-bank refresh, MASA)
// that the targeted tests do not. After every issued command the Ready*/Can*
// contract is checked in the state that command left.
func TestRandomCommandStream(t *testing.T) {
	for _, masa := range []bool{false, true} {
		name := "conventional"
		if masa {
			name = "masa"
		}
		t.Run(name, func(t *testing.T) {
			g := Std(8)
			tm := LPDDR4(Density8Gb, 64, g)
			c := NewChannel(g, tm)
			c.MASA = masa
			k := NewChecker(c)
			m := newShadow(c)
			rng := rand.New(rand.NewSource(99))
			plans := commandPlans(tm)

			issued, checked := 0, 0
			for now := int64(0); issued < 400 && now < 2_000_000; now++ {
				c.Tick(now)
				if checked < issued {
					checked = issued
					probe := Addr{Bank: rng.Intn(g.Banks), Row: rng.Intn(64), Col: rng.Intn(g.ColumnsPerRow())}
					if open := c.OpenRow(probe); open >= 0 && rng.Intn(2) == 0 {
						probe.Row = open
					}
					checkReadyContract(t, c, m, probe)
				}
				a := Addr{
					Bank: rng.Intn(g.Banks),
					Row:  rng.Intn(64),
					Col:  rng.Intn(g.ColumnsPerRow()),
				}
				switch rng.Intn(6) {
				case 0:
					p := plans[rng.Intn(len(plans))]
					if c.CanACT(a, now, p.kind) {
						copyRow := -1
						if p.kind != ActSingle {
							copyRow = rng.Intn(g.CopyRows)
						}
						c.ACT(a, now, p.kind, p.t, copyRow)
						m.act(a)
						issued++
					}
				case 1:
					if open := c.OpenRow(a); open >= 0 {
						a.Row = open
						if c.CanRD(a, now) {
							c.RD(a, now)
							issued++
						}
					}
				case 2:
					if open := c.OpenRow(a); open >= 0 {
						a.Row = open
						if c.CanWR(a, now) {
							c.WR(a, now)
							issued++
						}
					}
				case 3:
					if open := c.OpenRow(a); open >= 0 {
						a.Row = open
						if c.CanPRE(a, now) {
							c.PRE(a, now)
							m.pre(a)
							issued++
						}
					}
				case 4:
					if c.CanREF(0, now) && rng.Intn(50) == 0 {
						c.REF(0, now)
						issued++
					}
				case 5:
					b := rng.Intn(g.Banks)
					if c.CanREFpb(0, b, now) && rng.Intn(50) == 0 {
						c.REFpb(0, b, now)
						issued++
					}
				}
			}
			if issued < 400 {
				t.Fatalf("only %d commands issued; device livelocked?", issued)
			}
			for _, v := range k.Violations {
				t.Errorf("checker: %s", v)
			}
			if c.Stats.Activations() == 0 || c.Stats.PRE == 0 {
				t.Error("stream must include activity")
			}
		})
	}
}

// shadow is the test's own model of which row each subarray holds open,
// updated only by the commands the driver issues. It is what "only a state
// change can unblock this command" is judged against, independently of the
// channel's open list and counters.
type shadow struct {
	g    Geometry
	masa bool
	open map[[2]int]int // (bank, subarray) -> open row
}

func newShadow(c *Channel) *shadow {
	return &shadow{g: c.Geo, masa: c.MASA, open: map[[2]int]int{}}
}

func (m *shadow) act(a Addr) { m.open[[2]int{a.Bank, a.Subarray(m.g)}] = a.Row }
func (m *shadow) pre(a Addr) { delete(m.open, [2]int{a.Bank, a.Subarray(m.g)}) }

func (m *shadow) openInBank(bank int) int {
	n := 0
	for k := range m.open {
		if k[0] == bank {
			n++
		}
	}
	return n
}

// stateBlocked reports whether no passage of time can make the command legal.
func (m *shadow) stateBlocked(cmd Command, a Addr) bool {
	row, isOpen := m.open[[2]int{a.Bank, a.Subarray(m.g)}]
	switch cmd {
	case CmdACT:
		return isOpen || (!m.masa && m.openInBank(a.Bank) > 0)
	case CmdRD, CmdWR:
		return !isOpen || row != a.Row
	case CmdPRE:
		return !isOpen
	case CmdREFpb:
		return m.openInBank(a.Bank) > 0
	default: // CmdREF
		return len(m.open) > 0
	}
}

// contractOp is one command as a (ready, can, issue) triple over an address,
// so the contract below is stated once for all six.
type contractOp struct {
	cmd   Command
	ready func(a Addr) int64
	can   func(a Addr, now int64) bool
	issue func(a Addr, now int64)
}

func contractOps(c *Channel, tm Timing) []contractOp {
	return []contractOp{
		{CmdACT, c.ReadyACT,
			func(a Addr, now int64) bool { return c.CanACT(a, now, ActSingle) },
			func(a Addr, now int64) { c.ACT(a, now, ActSingle, tm.Base(), -1) }},
		{CmdRD, c.ReadyRD, c.CanRD, func(a Addr, now int64) { c.RD(a, now) }},
		{CmdWR, c.ReadyWR, c.CanWR, c.WR},
		{CmdPRE, c.ReadyPRE, c.CanPRE, func(a Addr, now int64) { c.PRE(a, now) }},
		{CmdREF, func(a Addr) int64 { return c.ReadyREF(a.Rank) },
			func(a Addr, now int64) bool { return c.CanREF(a.Rank, now) },
			func(a Addr, now int64) { c.REF(a.Rank, now) }},
		{CmdREFpb, func(a Addr) int64 { return c.ReadyREFpb(a.Rank, a.Bank) },
			func(a Addr, now int64) bool { return c.CanREFpb(a.Rank, a.Bank, now) },
			func(a Addr, now int64) { c.REFpb(a.Rank, a.Bank, now) }},
	}
}

// checkReadyContract asserts the device's when-not-whether contract in the
// channel's current state, for every command over each given address: the
// command is illegal at every cycle before Ready*, legal at it and from then
// on (nothing changes until the next command), issuing it a cycle early
// panics, and Ready* is Horizon exactly when the shadow model says only a
// state change can help. It also checks the open list and the per-bank
// summaries the Ready* answers rest on against a scan of every subarray.
func checkReadyContract(t *testing.T, c *Channel, m *shadow, addrs ...Addr) {
	t.Helper()
	for _, op := range contractOps(c, c.T) {
		for _, a := range addrs {
			at := op.ready(a)
			if blocked := m.stateBlocked(op.cmd, a); (at == Horizon) != blocked {
				t.Fatalf("%v b%d row %d: ready %d, but state-blocked = %v", op.cmd, a.Bank, a.Row, at, blocked)
			}
			if at == Horizon {
				if op.can(a, 0) || op.can(a, Horizon-1) {
					t.Fatalf("%v b%d row %d: legal at some cycle though only a state change can unblock it", op.cmd, a.Bank, a.Row)
				}
				continue
			}
			for _, now := range []int64{at - 1000, at - 1} {
				if op.can(a, now) {
					t.Fatalf("%v b%d row %d: legal at %d, before its ready cycle %d", op.cmd, a.Bank, a.Row, now, at)
				}
			}
			for _, now := range []int64{at, at + 1, at + 1000} {
				if !op.can(a, now) {
					t.Fatalf("%v b%d row %d: illegal at %d, at or after its ready cycle %d", op.cmd, a.Bank, a.Row, now, at)
				}
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
		}
		if actReady != bk.actReady {
			t.Fatalf("bank %d: tracked actReady %d, scan says %d", bankID, bk.actReady, actReady)
		}
		if got := c.OpenRowInBank(r, bankID); got != firstOpen {
			t.Fatalf("bank %d: OpenRowInBank %d, scan says %d", bankID, got, firstOpen)
		}
	}
	if !slices.Equal(c.Open(), scanned) || len(scanned) != len(m.open) || c.OpenBuffers() != len(scanned) {
		t.Fatalf("open subarrays: list %v (OpenBuffers %d), scan %v, shadow %v", c.Open(), c.OpenBuffers(), scanned, m.open)
	}
	for _, a := range addrs {
		i := c.SubIndex(a)
		if c.OpenRowAt(i) != c.OpenRow(a) || c.LastUseAt(i) != c.sub(a).lastUse || c.ReadyPREAt(i) != c.ReadyPRE(a) {
			t.Fatalf("b%d row %d: the accessors at index %d disagree with the addressed ones", a.Bank, a.Row, i)
		}
	}
}

// driveCommandStream interprets data as a command script against a fresh
// channel: every three bytes pick a time advance, a command, and an address.
// Before each command the device's Ready*/Can* contract is checked in the
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
	g := Std(8)
	tm := LPDDR4(Density8Gb, 64, g)
	c := NewChannel(g, tm)
	c.MASA = data[0]&1 != 0
	k := NewChecker(c)
	m := newShadow(c)
	plans := commandPlans(tm)

	now := int64(0)
	for i := 1; i+2 < len(data); i += 3 {
		op, sel, adv := data[i], data[i+1], data[i+2]
		// Advance time by 1..1024 cycles so slow constraints (tRFC,
		// write recovery) can clear within short inputs.
		now += 1 + int64(adv)*4
		a := Addr{
			Bank: int(sel) % g.Banks,
			Row:  int(sel>>3) % 64,
			Col:  int(op>>3) % g.ColumnsPerRow(),
		}
		probe := a
		if open := c.OpenRow(a); open >= 0 {
			probe.Row = open
		}
		checkReadyContract(t, c, m, a, probe)
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
				m.act(a)
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
				m.pre(probe)
			}
		case 4:
			if now, ok := at(c.ReadyREF(0)); ok {
				c.REF(0, now)
			}
		case 5:
			b := int(sel) % g.Banks
			if now, ok := at(c.ReadyREFpb(0, b)); ok {
				c.REFpb(0, b, now)
			}
		}
	}
	for _, v := range k.Violations {
		t.Errorf("checker: %s", v)
	}
}

// FuzzCommandStream fuzzes the device/checker pair with arbitrary command
// scripts (go test -fuzz=FuzzCommandStream ./internal/dram).
func FuzzCommandStream(f *testing.F) {
	// Seed corpus: an activate-read-precharge burst, a refresh-heavy
	// script, a MASA multi-open script, and CROW activate mixes.
	f.Add([]byte{0x00, 0x00, 0x09, 0x10, 0x01, 0x09, 0x20, 0x03, 0x09, 0x30})
	f.Add([]byte{0x00, 0x04, 0x00, 0xff, 0x05, 0x01, 0xff, 0x04, 0x02, 0xff})
	f.Add([]byte{0x01, 0x00, 0x08, 0x20, 0x00, 0x10, 0x20, 0x01, 0x08, 0x20})
	f.Add([]byte{0x00, 0x00, 0x01, 0x40, 0x00, 0x02, 0x40, 0x00, 0x03, 0x40, 0x01, 0x0b, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		driveCommandStream(t, data)
	})
}
