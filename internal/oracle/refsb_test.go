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
		obs.OnCommand(dram.CmdEvent{
			Cmd: dram.CmdREFpb, Addr: dram.Addr{Bank: i % g.Banks}, Cycle: cycle, CopyRow: -1,
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
// healthy (the oracle's sweep pointer advances on the last bank, so the
// remaining bank's sweep is unaffected). The monitor must attribute a
// violation to every starved row group — no more, no fewer — and name the
// invariant in its samples.
func TestDDR5MissedREFsbIsCaught(t *testing.T) {
	const banks = 2
	o, obs, tm, g := ddr5Oracle(t, banks)
	cycle := int64(0)
	interval := int64(tm.REFI) / int64(banks)
	const starved = 0
	for i := 0; i < 2*8192*banks; i++ {
		bank := i % banks
		if bank != starved {
			obs.OnCommand(dram.CmdEvent{
				Cmd: dram.CmdREFpb, Addr: dram.Addr{Bank: bank}, Cycle: cycle, CopyRow: -1,
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
}
