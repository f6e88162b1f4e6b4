package oracle

import (
	"strings"
	"testing"

	"crowdram/internal/dram"
)

// ddr5Oracle builds an oracle watching one DDR5 channel with a bank count
// small enough to sweep in a test, timed by the registered ddr5 standard
// (same-bank refresh: REFpb commands carrying tRFCsb).
func ddr5Oracle(t *testing.T, banks int) (*Oracle, dram.CommandObserver, dram.Timing, dram.Geometry) {
	t.Helper()
	std, err := dram.StandardByName("ddr5")
	if err != nil {
		t.Fatal(err)
	}
	g := dram.Geometry{
		Ranks: 1, Banks: banks, RowsPerBank: 8192, RowsPerSubarray: 512,
		CopyRows: 0, RowBytes: 1024, LineBytes: 64,
	}
	tm := std.Timing(dram.Density8Gb, std.RefWindowMS, g)
	o := New(Config{
		Channels: 1, Geo: g, T: tm,
		RefreshMultiplier: 1, BankRefresh: true,
		MaxSamples: 1 << 16, // every sample, so one class cannot crowd out another
	})
	return o, o.Observer(0), tm, g
}

// TestDDR5SamebankSweepIsClean establishes the control: a full REFsb sweep
// at the per-bank cadence satisfies the refresh-deadline monitor.
func TestDDR5SamebankSweepIsClean(t *testing.T) {
	o, obs, tm, g := ddr5Oracle(t, 2)
	cycle := int64(0)
	interval := int64(tm.REFI) / int64(g.Banks)
	for i := 0; i < 2*8192*g.Banks; i++ {
		row := i / g.Banks * tm.RowsPerRef % g.RowsPerBank // the device's refresh counter
		obs.OnCommand(dram.CmdEvent{
			Cmd: dram.CmdREFpb, Addr: dram.Addr{Bank: i % g.Banks, Row: row}, Cycle: cycle, CopyRow: -1,
		})
		cycle += interval
	}
	o.Finish(cycle)
	if f := o.Findings(); f.Total() != 0 {
		t.Fatalf("clean DDR5 REFsb sweep flagged: %v; samples: %v", f.Counts, f.Samples)
	}
}

// TestDDR5MissedREFsbIsCaught injects the bug the monitor exists for: a
// controller that silently stops refreshing one bank. The sweep runs the
// full same-bank cadence but drops every REFsb aimed at bank 0, so bank 0's
// rows sail past their retention deadline while the other bank stays
// healthy (each REFsb carries the row the device's counter reports, so the
// remaining bank's sweep is unaffected). The monitor must attribute a
// violation to every starved row group — no more, no fewer — and name the
// invariant in its samples; the rank's refresh cadence fails too.
func TestDDR5MissedREFsbIsCaught(t *testing.T) {
	const banks = 2
	o, obs, tm, g := ddr5Oracle(t, banks)
	cycle := int64(0)
	interval := int64(tm.REFI) / int64(banks)
	const starved = 0
	for i := 0; i < 2*8192*banks; i++ {
		bank := i % banks
		if bank != starved {
			row := i / banks * tm.RowsPerRef % g.RowsPerBank
			obs.OnCommand(dram.CmdEvent{
				Cmd: dram.CmdREFpb, Addr: dram.Addr{Bank: bank, Row: row}, Cycle: cycle, CopyRow: -1,
			})
		}
		cycle += interval
	}
	o.Finish(cycle)
	f := o.Findings()
	got := f.Counts["refresh-deadline"]
	want := int64(g.RowsPerBank / tm.RowsPerRef) // every group of the starved bank, once
	if got != want {
		t.Fatalf("missed REFsb on bank %d: refresh-deadline violations = %d, want %d (findings: %v)",
			starved, got, want, f.Counts)
	}
	found := false
	for _, s := range f.Samples {
		if strings.Contains(s, "refresh-deadline") && strings.Contains(s, "b0") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no refresh-deadline sample naming bank %d; samples: %v", starved, f.Samples)
	}
	// Half the refreshes are missing, so the rank falls behind its cadence
	// (budget: two banks) as well: at the REFsb of event i (odd), it owes
	// (i+1)/2, which passes budget+1 = 3 from i = 7 on; Finish adds one more.
	last := 2*8192*banks - 1
	if got, want := f.Counts["refresh-cadence"], int64((last-7)/2+1+1); got != want {
		t.Fatalf("missed REFsb on bank %d: refresh-cadence violations = %d, want %d", starved, got, want)
	}
}
