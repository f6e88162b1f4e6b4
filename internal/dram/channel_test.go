package dram

import (
	"reflect"
	"testing"

	"crowdram/internal/metrics"
)

func testChannel(t *testing.T, copyRows int) (*Channel, *Checker) {
	t.Helper()
	g := Std(copyRows)
	tm := LPDDR4(Density8Gb, 64, g)
	c := NewChannel(g, tm)
	k := NewChecker(c)
	return c, k
}

func requireClean(t *testing.T, k *Checker) {
	t.Helper()
	for _, v := range k.Violations {
		t.Errorf("checker violation: %s", v)
	}
}

func TestActivateReadPrechargeSequence(t *testing.T) {
	c, k := testChannel(t, 0)
	a := Addr{Bank: 0, Row: 100, Col: 5}
	base := c.T.Base()

	if at := c.ReadyACT(a); at != 0 {
		t.Fatalf("ACT to an idle bank ready at %d, want cycle 0", at)
	}
	c.ACT(a, 0, ActSingle, base, -1)

	if c.OpenRow(a) != 100 {
		t.Errorf("OpenRow = %d, want 100", c.OpenRow(a))
	}
	if at := c.ReadyRD(a); at != int64(c.T.RCD) {
		t.Fatalf("RD ready at %d, want tRCD %d", at, c.T.RCD)
	}
	done := c.RD(a, int64(c.T.RCD))
	wantDone := int64(c.T.RCD + c.T.CL + c.T.BL)
	if done != wantDone {
		t.Errorf("RD data done = %d, want %d", done, wantDone)
	}

	if at := c.ReadyPRE(a); at != int64(c.T.RAS) {
		t.Fatalf("PRE ready at %d, want tRAS %d", at, c.T.RAS)
	}
	if full := c.PRE(a, int64(c.T.RAS)); !full {
		t.Error("PRE at default tRAS counts as fully restored")
	}
	if c.OpenRow(a) != -1 {
		t.Error("row must be closed after PRE")
	}

	// Next ACT must wait tRP.
	preAt := int64(c.T.RAS)
	if at, want := c.ReadyACT(a), preAt+int64(c.T.RP); at != want {
		t.Errorf("ACT ready at %d, want PRE+tRP %d", at, want)
	}
	requireClean(t, k)
}

func TestReadToWrongRowIllegal(t *testing.T) {
	c, _ := testChannel(t, 0)
	c.ACT(Addr{Row: 1}, 0, ActSingle, c.T.Base(), -1)
	if c.ReadyRD(Addr{Row: 2}) != Horizon {
		t.Error("RD to a row other than the open one must be illegal")
	}
}

func TestSingleOpenRowPerBank(t *testing.T) {
	c, _ := testChannel(t, 0)
	c.ACT(Addr{Row: 0}, 0, ActSingle, c.T.Base(), -1)
	// Another subarray of the same bank: illegal without MASA.
	if c.ReadyACT(Addr{Row: 512}) != Horizon {
		t.Error("second open row in one bank must be illegal without MASA")
	}
	// Another bank: legal after tRRD.
	if at := c.ReadyACT(Addr{Bank: 1, Row: 0}); at != int64(c.T.RRD) {
		t.Errorf("ACT to another bank ready at %d, want tRRD %d", at, c.T.RRD)
	}
}

func TestMASAAllowsMultipleOpenSubarrays(t *testing.T) {
	g := Std(0)
	tm := LPDDR4(Density8Gb, 64, g)
	c := NewChannel(g, tm)
	c.MASA = true
	k := NewChecker(c)

	c.ACT(Addr{Row: 0}, 0, ActSingle, tm.Base(), -1)
	other := Addr{Row: 512} // different subarray, same bank
	if at := c.ReadyACT(other); at != int64(tm.RRD) {
		t.Fatalf("MASA must allow a second subarray activation in the same bank at tRRD, ready at %d", at)
	}
	c.ACT(other, int64(tm.RRD), ActSingle, tm.Base(), -1)
	if c.OpenRow(Addr{Row: 0}) != 0 || c.OpenRow(other) != 512 {
		t.Error("both subarrays must be open")
	}
	if len(c.open) != 2 {
		t.Errorf("%d open local row buffers, want 2", len(c.open))
	}
	// Same subarray still at most one row.
	if c.ReadyACT(Addr{Row: 1}) != Horizon {
		t.Error("same subarray must not open a second row")
	}
	requireClean(t, k)
}

func TestTRRDAndTFAW(t *testing.T) {
	// With the stock LPDDR4 parameters 4*tRRD == tFAW, so tFAW never
	// binds; shrink tRRD to make the four-activate window observable.
	g := Std(0)
	tm := LPDDR4(Density8Gb, 64, g)
	tm.RRD = 4
	c := NewChannel(g, tm)
	k := NewChecker(c)
	base := tm.Base()
	rrd := int64(tm.RRD)

	c.ACT(Addr{Bank: 0, Row: 0}, 0, ActSingle, base, -1)
	if at := c.ReadyACT(Addr{Bank: 1, Row: 0}); at != rrd {
		t.Errorf("back-to-back ACT ready at %d, want tRRD %d", at, rrd)
	}
	c.ACT(Addr{Bank: 1, Row: 0}, rrd, ActSingle, base, -1)
	c.ACT(Addr{Bank: 2, Row: 0}, 2*rrd, ActSingle, base, -1)
	c.ACT(Addr{Bank: 3, Row: 0}, 3*rrd, ActSingle, base, -1)
	// Fifth ACT within tFAW of the first must be illegal.
	if at := c.ReadyACT(Addr{Bank: 4, Row: 0}); at != int64(tm.FAW) {
		t.Errorf("fifth ACT ready at %d, want tFAW %d", at, tm.FAW)
	}
	c.ACT(Addr{Bank: 4, Row: 0}, int64(tm.FAW), ActSingle, base, -1)
	requireClean(t, k)
}

func TestWriteRecoveryGatesPrecharge(t *testing.T) {
	c, k := testChannel(t, 0)
	a := Addr{Row: 7}
	c.ACT(a, 0, ActSingle, c.T.Base(), -1)
	wrAt := int64(c.T.RCD)
	c.WR(a, wrAt)
	dataEnd := wrAt + int64(c.T.CWL) + int64(c.T.BL)
	preOK := dataEnd + int64(c.T.WR)
	if at := c.ReadyPRE(a); at != preOK {
		t.Errorf("PRE ready at %d, want the end of write recovery %d", at, preOK)
	}
	c.PRE(a, preOK)
	requireClean(t, k)
}

func TestMRAWriteRecoveryUsesPlan(t *testing.T) {
	c, _ := testChannel(t, 8)
	crow := c.T.CROW()
	a := Addr{Row: 7}
	c.ACT(a, 0, ActTwo, crow.TwoPartial, 0)
	wrAt := int64(crow.TwoPartial.RCD)
	c.WR(a, wrAt)
	dataEnd := wrAt + int64(c.T.CWL) + int64(c.T.BL)
	preOK := dataEnd + int64(crow.TwoPartial.WR)
	if at := c.ReadyPRE(a); at != preOK {
		t.Errorf("PRE ready at %d, want %d: the MRA plan's reduced tWR, not the default", at, preOK)
	}
}

func TestPartialRestoreDetection(t *testing.T) {
	c, _ := testChannel(t, 8)
	crow := c.T.CROW()
	a := Addr{Row: 3}
	c.ACT(a, 0, ActTwo, crow.TwoFull, 0)
	// Closing at the reduced tRAS terminates restoration early.
	if full := c.PRE(a, int64(crow.TwoFull.RAS)); full {
		t.Error("PRE before default tRAS must report partial restoration")
	}
	// Reopen and hold past default tRAS: fully restored.
	reACT := int64(crow.TwoFull.RAS) + int64(c.T.RP)
	c.ACT(a, reACT, ActTwo, crow.TwoPartial, 0)
	if full := c.PRE(a, reACT+int64(c.T.RAS)); !full {
		t.Error("PRE at/after default tRAS must report full restoration")
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	c, k := testChannel(t, 0)
	if at := c.ReadyRefresh(0, 0, c.Geo.Banks); at != 0 {
		t.Fatalf("REF to an idle rank ready at %d, want cycle 0", at)
	}
	c.REF(0, 0)
	if at := c.ReadyACT(Addr{Row: 0}); at != int64(c.T.RFC) {
		t.Errorf("ACT after REF ready at %d, want tRFC %d", at, c.T.RFC)
	}
	requireClean(t, k)
}

func TestRefreshRequiresClosedBanks(t *testing.T) {
	c, _ := testChannel(t, 0)
	c.ACT(Addr{Row: 0}, 0, ActSingle, c.T.Base(), -1)
	if c.ReadyRefresh(0, 0, c.Geo.Banks) != Horizon {
		t.Error("REF with an open row must be illegal")
	}
	if at := c.ReadyRefresh(0, 1, 2); at != 1 {
		t.Errorf("REFpb of another bank ready at %d, want cycle 1, when the command bus frees", at)
	}
	c.PRE(Addr{Row: 0}, int64(c.T.RAS))
	if at, want := c.ReadyRefresh(0, 0, c.Geo.Banks), int64(c.T.RAS+c.T.RP); at != want {
		t.Errorf("REF ready at %d, want PRE+tRP %d", at, want)
	}
}

func TestCROWCommandBusOccupancy(t *testing.T) {
	c, _ := testChannel(t, 8)
	crow := c.T.CROW()
	c.ACT(Addr{Bank: 0, Row: 0}, 0, ActTwo, crow.TwoFull, 0)
	// The CROW activate holds the command bus for two cycles, so even a
	// command to another bank cannot issue in the next cycle.
	if c.cmdBusFree != 2 {
		t.Errorf("cmdBusFree = %d, want 2 after ACT-t", c.cmdBusFree)
	}
	c2, _ := testChannel(t, 8)
	c2.ACT(Addr{Bank: 0, Row: 0}, 0, ActSingle, c2.T.Base(), -1)
	if c2.cmdBusFree != 1 {
		t.Errorf("cmdBusFree = %d, want 1 after plain ACT", c2.cmdBusFree)
	}
}

func TestDataBusConflictAcrossBanks(t *testing.T) {
	c, k := testChannel(t, 0)
	base := c.T.Base()
	c.ACT(Addr{Bank: 0, Row: 0}, 0, ActSingle, base, -1)
	c.ACT(Addr{Bank: 1, Row: 0}, int64(c.T.RRD), ActSingle, base, -1)
	// Read bank 0 once both banks have satisfied tRCD so that tCCD is the
	// binding constraint for the second read.
	rd1 := int64(c.T.RRD + c.T.RCD)
	c.RD(Addr{Bank: 0, Row: 0}, rd1)
	// A second RD must wait tCCD (which equals BL here, so the bus is
	// contiguous with no overlap).
	if at, want := c.ReadyRD(Addr{Bank: 1, Row: 0}), rd1+int64(c.T.CCD); at != want {
		t.Errorf("back-to-back RD ready at %d, want tCCD after the first, %d", at, want)
	}
	c.RD(Addr{Bank: 1, Row: 0}, rd1+int64(c.T.CCD))
	requireClean(t, k)
}

func TestWriteToReadTurnaround(t *testing.T) {
	c, k := testChannel(t, 0)
	base := c.T.Base()
	c.ACT(Addr{Bank: 0, Row: 0}, 0, ActSingle, base, -1)
	wrAt := int64(c.T.RCD)
	c.WR(Addr{Bank: 0, Row: 0}, wrAt)
	dataEnd := wrAt + int64(c.T.CWL) + int64(c.T.BL)
	rdOK := dataEnd + int64(c.T.WTR)
	if at := c.ReadyRD(Addr{Bank: 0, Row: 0}); at != rdOK {
		t.Errorf("RD after WR ready at %d, want tWTR after the write data, %d", at, rdOK)
	}
	c.RD(Addr{Bank: 0, Row: 0}, rdOK)
	requireClean(t, k)
}

func TestStatsCounting(t *testing.T) {
	c, _ := testChannel(t, 8)
	crow := c.T.CROW()
	c.ACT(Addr{Row: 0}, 0, ActCopy, crow.Copy, 0)
	c.PRE(Addr{Row: 0}, int64(crow.Copy.RAS))
	next := int64(crow.Copy.RAS) + int64(c.T.RP)
	c.ACT(Addr{Row: 0}, next, ActTwo, crow.TwoPartial, 0)
	c.RD(Addr{Row: 0}, next+int64(crow.TwoPartial.RCD))
	if c.Stats.ACTCopy != 1 || c.Stats.ACTTwo != 1 || c.Stats.PRE != 1 || c.Stats.RD != 1 {
		t.Errorf("stats mismatch: %+v", c.Stats)
	}
	if c.Stats.Activations() != 2 {
		t.Errorf("Activations = %d, want 2", c.Stats.Activations())
	}
}

func TestTickAccumulatesOpenBufferCycles(t *testing.T) {
	c, _ := testChannel(t, 0)
	c.Tick(10) // nothing open yet
	c.ACT(Addr{Row: 0}, 10, ActSingle, c.T.Base(), -1)
	c.Tick(20)
	if c.Stats.OpenBufferCycles != 10 {
		t.Errorf("OpenBufferCycles = %d, want 10", c.Stats.OpenBufferCycles)
	}
	if c.Stats.ActiveStandbyCycles != 10 {
		t.Errorf("ActiveStandbyCycles = %d, want 10", c.Stats.ActiveStandbyCycles)
	}
}

func TestIllegalCommandPanics(t *testing.T) {
	c, _ := testChannel(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("RD to closed bank must panic")
		}
	}()
	c.RD(Addr{Row: 0}, 0)
}

// TestStatsSubCoversEveryField sets every int64 field of two Stats to distinct
// values and requires metrics.Sub and metrics.Add to combine each with its own
// counterpart: a counter added to Stats but skipped by the arithmetic would
// otherwise report its whole-run value for the measured interval, silently.
func TestStatsSubCoversEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is not an int64: decide how metrics.Sub treats it and extend this test", av.Type().Field(i).Name)
		}
		av.Field(i).SetInt(int64(1000 * (i + 1)))
		bv.Field(i).SetInt(int64(i + 1))
	}
	diff, sum := reflect.ValueOf(metrics.Sub(a, b)), reflect.ValueOf(metrics.Add(a, b))
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if got, want := diff.Field(i).Int(), int64(999*(i+1)); got != want {
			t.Errorf("Sub: %s = %d, want %d", name, got, want)
		}
		if got, want := sum.Field(i).Int(), int64(1001*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
	}
}
