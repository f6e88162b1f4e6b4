package exp

import "testing"

func TestHammerExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// The hammer probe needs enough accesses per row to cross the
	// detection threshold.
	s := tinyScale()
	s.Insts = 100_000
	s.Warmup = 5_000
	r := NewRunner(s)
	res, err := HammerAttack(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaps == 0 {
		t.Error("the synthetic attack must trigger victim remaps")
	}
	if res.CopyOps < res.Remaps {
		t.Error("every remap needs a protective copy")
	}
	if res.Table().Rows == nil {
		t.Error("table must render")
	}
}

func TestTableSharingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := NewRunner(tinyScale())
	res, err := TableSharing(r)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table().Rows
	if len(rows) != 4 {
		t.Fatalf("want 4 sharing points")
	}
	// Storage must shrink monotonically with sharing.
	for i := 1; i < len(rows); i++ {
		if res.At(rows[i][0], "table KB/channel") >= res.At(rows[i-1][0], "table KB/channel") {
			t.Error("sharing must reduce table storage")
		}
	}
	// Dedicated sets must be at least as fast as heavy sharing (allowing
	// small-scale noise).
	if one, eight := res.At("1", "avg speedup"), res.At("8", "avg speedup"); one < eight-0.02 {
		t.Errorf("share=1 (%.3f) should not trail share=8 (%.3f) by much", one, eight)
	}
}

func TestRestorePolicyAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := NewRunner(tinyScale())
	res, err := RestorePolicy(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table().Rows == nil {
		t.Error("table must render")
	}
}

func TestRefComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	s := tinyScale()
	s.Insts = 120_000
	s.Warmup = 12_000
	s.SingleApps = []string{"mcf"}
	r := NewRunner(s)
	res, err := RefComparison(r)
	if err != nil {
		t.Fatal(err)
	}
	if cr, ra := res.At("crow-ref", "speedup"), res.At("raidr", "speedup"); cr <= 0 || ra <= 0 {
		t.Errorf("both refresh mechanisms must speed up at 64 Gbit: crow-ref %+.3f, raidr %+.3f", cr, ra)
	}
	if res.At("raidr", "row refreshes") == 0 {
		t.Error("RAIDR must perform row-granular weak refreshes")
	}
	if res.At("crow-ref", "row refreshes") != 0 {
		t.Error("CROW-ref performs no row-granular refreshes")
	}
	if res.At("raidr", "capacity ovh") != 0 || res.At("crow-ref", "capacity ovh") == 0 {
		t.Error("capacity costs: RAIDR none, CROW-ref copy rows")
	}
}

func TestSchedulerSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := NewRunner(tinyScale())
	res, err := SchedulerSensitivity(r)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table().Rows
	if len(rows) != 5 {
		t.Fatalf("want 5 sensitivity rows, got %d", len(rows))
	}
	for _, row := range rows {
		if sp := res.At(row[0], "speedup vs default"); sp < -0.5 || sp > 0.5 {
			t.Errorf("%s: implausible sensitivity %+.3f", row[0], sp)
		}
	}
}
