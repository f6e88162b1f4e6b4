package oracle

import (
	"reflect"
	"strings"
	"testing"

	"crowdram/internal/dram"
)

// testGeo is a small geometry: 2 banks, 4 subarrays of 16 rows, 2 copy rows,
// 16 columns per row.
func testGeo() dram.Geometry {
	return dram.Geometry{
		Ranks: 1, Banks: 2, RowsPerBank: 64, RowsPerSubarray: 16,
		CopyRows: 2, RowBytes: 1024, LineBytes: 64,
	}
}

func testOracle(t *testing.T, mod func(*Config)) (*Oracle, dram.CommandObserver) {
	t.Helper()
	g := testGeo()
	cfg := Config{
		Channels: 1, Geo: g, T: dram.LPDDR4(dram.Density8Gb, 64, g),
		Cap: 16, DataChecks: true,
	}
	if mod != nil {
		mod(&cfg)
	}
	o := New(cfg)
	return o, o.Observer(0)
}

// drive issues a canonical activate/column/precharge stream.
func act(obs dram.CommandObserver, row int, kind dram.ActKind, copyRow int, plan dram.ActTimings, cycle int64) {
	obs.OnCommand(dram.CmdEvent{
		Cmd: dram.CmdACT + dram.Command(kind), Addr: dram.Addr{Row: row},
		Cycle: cycle, Kind: kind, CopyRow: copyRow, Plan: plan,
	})
}

func col(obs dram.CommandObserver, cmd dram.Command, row, c int, cycle int64) {
	obs.OnCommand(dram.CmdEvent{Cmd: cmd, Addr: dram.Addr{Row: row, Col: c}, Cycle: cycle, CopyRow: -1})
}

func pre(obs dram.CommandObserver, row int, full bool, cycle int64) {
	obs.OnCommand(dram.CmdEvent{Cmd: dram.CmdPRE, Addr: dram.Addr{Row: row}, Cycle: cycle, CopyRow: -1, FullyRestored: full})
}

func wantViolations(t *testing.T, o *Oracle, class string, n int64) {
	t.Helper()
	f := o.Findings()
	if got := f.Counts[class]; got != n {
		t.Errorf("%s violations = %d, want %d (findings: %v; samples: %v)", class, got, n, f.Counts, f.Samples)
	}
}

func TestCleanCacheLifecycleHasNoViolations(t *testing.T) {
	o, obs := testOracle(t, nil)
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	crow := tm.CROW()
	// Miss: copy row 5 into way 0, write a column, precharge fully.
	act(obs, 5, dram.ActCopy, 0, crow.CopyFull, 0)
	col(obs, dram.CmdWR, 5, 3, 10)
	pre(obs, 5, true, 200)
	// Hit: ACT-t at the fast plan, read back, precharge early.
	act(obs, 5, dram.ActTwo, 0, crow.TwoFull, 300)
	col(obs, dram.CmdRD, 5, 3, 330)
	pre(obs, 5, false, 360)
	// Partial pair: next hit must use the partial plan; read still coherent.
	act(obs, 5, dram.ActTwo, 0, crow.TwoPartial, 400)
	col(obs, dram.CmdWR, 5, 7, 430)
	pre(obs, 5, true, 600)
	// Plain activation of an unrelated row.
	act(obs, 20, dram.ActSingle, -1, tm.Base(), 700)
	col(obs, dram.CmdRD, 20, 0, 730)
	pre(obs, 20, true, 900)
	if f := o.Findings(); f.Total() != 0 {
		t.Fatalf("clean stream produced violations: %v; samples: %v", f.Counts, f.Samples)
	}
}

func TestStaleReadAfterMissedCopyUpdate(t *testing.T) {
	o, obs := testOracle(t, nil)
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	crow := tm.CROW()
	// Copy row 5 into way 0 with one written column.
	act(obs, 5, dram.ActCopy, 0, crow.CopyFull, 0)
	col(obs, dram.CmdWR, 5, 3, 10)
	pre(obs, 5, true, 200)
	// Buggy controller activates the regular row alone and writes — the
	// copy row silently goes stale.
	act(obs, 5, dram.ActSingle, -1, tm.Base(), 300)
	col(obs, dram.CmdWR, 5, 3, 330)
	pre(obs, 5, true, 500)
	// Redirect to the stale copy row: the ACT-t pair check fires, and a
	// read through a never-resynced copy would return old data.
	act(obs, 5, dram.ActTwo, 0, crow.TwoFull, 600)
	wantViolations(t, o, "incoherent-pair", 1)
}

func TestStaleRemapRedirect(t *testing.T) {
	o, obs := testOracle(t, nil)
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	// Write through the regular row first, so the copy row cannot be a
	// boot-time remap.
	act(obs, 7, dram.ActSingle, -1, tm.Base(), 0)
	col(obs, dram.CmdWR, 7, 0, 30)
	pre(obs, 7, true, 200)
	// Redirect to a copy row that was never copied into.
	act(obs, 7, dram.ActCopyRow, 1, tm.Base(), 300)
	wantViolations(t, o, "stale-remap", 1)
}

func TestBootRemapAdoption(t *testing.T) {
	o, obs := testOracle(t, nil)
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	// A profile-loaded CROW-ref remap redirects the very first access to
	// the weak row: legal, the copy row inherits the boot content.
	act(obs, 9, dram.ActCopyRow, 0, tm.Base(), 0)
	col(obs, dram.CmdWR, 9, 2, 30)
	pre(obs, 9, true, 200)
	act(obs, 9, dram.ActCopyRow, 0, tm.Base(), 300)
	col(obs, dram.CmdRD, 9, 2, 330)
	pre(obs, 9, true, 500)
	if f := o.Findings(); f.Total() != 0 {
		t.Fatalf("boot remap flagged: %v; samples: %v", f.Counts, f.Samples)
	}
}

func TestFastSensingOnPartialPair(t *testing.T) {
	o, obs := testOracle(t, nil)
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	crow := tm.CROW()
	act(obs, 1, dram.ActCopy, 0, crow.Copy, 0)
	pre(obs, 1, false, 50) // early termination: pair left partial
	// Buggy timing selection: fully-restored plan on a partial pair.
	act(obs, 1, dram.ActTwo, 0, crow.TwoFull, 100)
	wantViolations(t, o, "fast-partial-sensing", 1)
}

func TestPartialSingleActivation(t *testing.T) {
	o, obs := testOracle(t, nil)
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	crow := tm.CROW()
	act(obs, 1, dram.ActCopy, 0, crow.Copy, 0)
	pre(obs, 1, false, 50)
	// Buggy eviction: the partial pair's regular row is activated alone.
	act(obs, 1, dram.ActSingle, -1, tm.Base(), 100)
	wantViolations(t, o, "partial-single-activation", 1)
}

func TestCapExceeded(t *testing.T) {
	o, obs := testOracle(t, func(c *Config) { c.Cap = 2 })
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	act(obs, 0, dram.ActSingle, -1, tm.Base(), 0)
	col(obs, dram.CmdRD, 0, 0, 30)
	col(obs, dram.CmdRD, 0, 1, 40)
	wantViolations(t, o, "cap-exceeded", 0)
	col(obs, dram.CmdRD, 0, 2, 50)
	wantViolations(t, o, "cap-exceeded", 1)
}

func TestRefreshDeadline(t *testing.T) {
	g := dram.Geometry{
		Ranks: 1, Banks: 1, RowsPerBank: 8192, RowsPerSubarray: 512,
		CopyRows: 0, RowBytes: 1024, LineBytes: 64,
	}
	tm := dram.LPDDR4(dram.Density8Gb, 64, g) // RowsPerRef = 1, 8192 groups
	o := New(Config{Channels: 1, Geo: g, T: tm, RefreshMultiplier: 1})
	obs := o.Observer(0)
	// One REF refreshes group 0 just before the deadline; every other
	// group then expires at Finish.
	dl := o.deadline()
	obs.OnCommand(dram.CmdEvent{Cmd: dram.CmdREF, Addr: dram.Addr{}, Cycle: dl, CopyRow: -1})
	o.Finish(dl + 10)
	f := o.Findings()
	if got := f.Counts["refresh-deadline"]; got != 8191 {
		t.Fatalf("refresh-deadline violations = %d, want 8191 (all groups but the refreshed one)", got)
	}
	if len(f.Samples) == 0 || !strings.Contains(f.Samples[0], "refresh-deadline") {
		t.Fatalf("expected refresh-deadline samples, got %v", f.Samples)
	}
}

func TestRefreshSweepMeetsDeadline(t *testing.T) {
	g := dram.Geometry{
		Ranks: 1, Banks: 2, RowsPerBank: 8192, RowsPerSubarray: 512,
		CopyRows: 0, RowBytes: 1024, LineBytes: 64,
	}
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	o := New(Config{Channels: 1, Geo: g, T: tm, RefreshMultiplier: 1})
	obs := o.Observer(0)
	// A full sweep at the nominal REFI cadence, twice over, stays clean.
	cycle := int64(0)
	for i := 0; i < 2*8192; i++ {
		obs.OnCommand(dram.CmdEvent{Cmd: dram.CmdREF, Addr: dram.Addr{}, Cycle: cycle, CopyRow: -1})
		cycle += int64(tm.REFI)
	}
	o.Finish(cycle)
	if f := o.Findings(); f.Total() != 0 {
		t.Fatalf("nominal sweep flagged: %v; samples: %v", f.Counts, f.Samples)
	}
}

func TestPerBankRefreshSweep(t *testing.T) {
	g := dram.Geometry{
		Ranks: 1, Banks: 2, RowsPerBank: 8192, RowsPerSubarray: 512,
		CopyRows: 0, RowBytes: 1024, LineBytes: 64,
	}
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	o := New(Config{Channels: 1, Geo: g, T: tm, RefreshMultiplier: 1, BankRefresh: true})
	obs := o.Observer(0)
	cycle := int64(0)
	interval := int64(tm.REFI) / int64(g.Banks)
	for i := 0; i < 2*8192*g.Banks; i++ {
		obs.OnCommand(dram.CmdEvent{
			Cmd: dram.CmdREFpb, Addr: dram.Addr{Bank: i % g.Banks}, Cycle: cycle, CopyRow: -1,
		})
		cycle += interval
	}
	o.Finish(cycle)
	if f := o.Findings(); f.Total() != 0 {
		t.Fatalf("per-bank sweep flagged: %v; samples: %v", f.Counts, f.Samples)
	}
}

func TestCheckStats(t *testing.T) {
	o, obs := testOracle(t, nil)
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	act(obs, 0, dram.ActSingle, -1, tm.Base(), 0)
	col(obs, dram.CmdRD, 0, 0, 30)
	pre(obs, 0, true, 100)
	good := dram.Stats{
		ACT: 1, PRE: 1, RD: 1,
		ActRasSingle: int64(tm.RAS), RDBusyCycles: int64(tm.BL),
	}
	o.CheckStats(0, good)
	if f := o.Findings(); f.Total() != 0 {
		t.Fatalf("matching stats flagged: %v; samples: %v", f.Counts, f.Samples)
	}
	bad := good
	bad.RD = 2 // a dropped/duplicated energy event
	o.CheckStats(0, bad)
	wantViolations(t, o, "stats-mismatch", 1)
}

// TestCheckStatsCoversEveryField drives a device through every command kind
// with the oracle attached and walks dram.Stats by reflection: a field is
// either listed as cycle-integral or non-zero on the device, equal in the
// oracle's mirror, and named by a stats-mismatch once the report is off by
// one. A counter added to dram.Stats that the oracle neither mirrors nor
// lists fails here.
func TestCheckStatsCoversEveryField(t *testing.T) {
	g := testGeo()
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	crow := tm.CROW()
	dev := dram.NewChannel(g, tm)
	o := New(Config{Channels: 1, Geo: g, T: tm, DataChecks: true, MaxSamples: 100})
	dev.Attach(o.Observer(0))
	now := int64(0)
	at := func(ready int64) int64 {
		now = max(now+1, ready)
		dev.Tick(now)
		return now
	}
	a := dram.Addr{Row: 5, Col: 3}
	for _, k := range []struct {
		kind    dram.ActKind
		plan    dram.ActTimings
		copyRow int
	}{{dram.ActCopy, crow.CopyFull, 0}, {dram.ActTwo, crow.TwoFull, 0}, {dram.ActSingle, tm.Base(), -1}, {dram.ActCopyRow, tm.Base(), 0}} {
		dev.ACT(a, at(dev.ReadyACT(a)), k.kind, k.plan, k.copyRow)
		dev.WR(a, at(dev.ReadyWR(a)))
		dev.RD(a, at(dev.ReadyRD(a)))
		dev.PRE(a, at(dev.ReadyPRE(a)+int64(k.plan.RASFull)))
	}
	dev.REF(0, at(dev.ReadyRefresh(0, 0, g.Banks)))
	dev.REFpb(0, 1, at(dev.ReadyRefresh(0, 1, 2)))
	o.CheckStats(0, dev.Stats)
	if f := o.Findings(); f.Total() != 0 {
		t.Fatalf("the device's own stats flagged: %v; samples: %v", f.Counts, f.Samples)
	}
	st := reflect.TypeOf(dev.Stats)
	for name := range cycleIntegral {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("cycleIntegral lists %s, which dram.Stats does not have", name)
		}
	}
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if cycleIntegral[name] {
			continue
		}
		if reflect.ValueOf(dev.Stats).Field(i).Int() == 0 {
			t.Errorf("dram.Stats.%s stayed 0 over every command kind: mirror it in the oracle (and drive it here) or list it in cycleIntegral", name)
		}
		off := dev.Stats
		f := reflect.ValueOf(&off).Elem().Field(i)
		f.SetInt(f.Int() + 1)
		before := o.Findings().Total()
		o.CheckStats(0, off)
		got := o.Findings()
		if got.Total() != before+1 || !strings.Contains(got.Samples[len(got.Samples)-1], " "+name+": ") {
			t.Errorf("%s off by one: %d new violations, samples %v", name, got.Total()-before, got.Samples)
		}
	}
}

// TestTouchedRowsAllocateNothing: once its rows and columns have been touched,
// a stream of re-activations of every kind, reads, writes and precharges
// leaves the heap alone.
func TestTouchedRowsAllocateNothing(t *testing.T) {
	o, obs := testOracle(t, nil)
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	crow := tm.CROW()
	round := func() {
		for _, k := range []struct {
			row, copyRow int
			kind         dram.ActKind
			plan         dram.ActTimings
		}{{5, 0, dram.ActCopy, crow.CopyFull}, {5, 0, dram.ActTwo, crow.TwoFull}, {20, -1, dram.ActSingle, tm.Base()}, {9, 1, dram.ActCopyRow, tm.Base()}} {
			act(obs, k.row, k.kind, k.copyRow, k.plan, 0)
			col(obs, dram.CmdWR, k.row, 3, 0)
			col(obs, dram.CmdRD, k.row, 3, 0)
			col(obs, dram.CmdRD, k.row, 4, 0)
			pre(obs, k.row, true, 0)
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a round over touched rows allocates %v times, want 0", n)
	}
	if f := o.Findings(); f.Total() != 0 {
		t.Fatalf("the stream raised violations: %v; samples: %v", f.Counts, f.Samples)
	}
}

func TestSampleBound(t *testing.T) {
	o, obs := testOracle(t, func(c *Config) { c.Cap = 1; c.MaxSamples = 3 })
	tm := dram.LPDDR4(dram.Density8Gb, 64, testGeo())
	act(obs, 0, dram.ActSingle, -1, tm.Base(), 0)
	for i := 1; i < 10; i++ {
		col(obs, dram.CmdRD, 0, i, int64(30*i))
	}
	f := o.Findings()
	if f.Counts["cap-exceeded"] != 8 {
		t.Fatalf("cap-exceeded = %d, want 8", f.Counts["cap-exceeded"])
	}
	if len(f.Samples) != 3 {
		t.Fatalf("samples = %d, want bounded at 3", len(f.Samples))
	}
}
