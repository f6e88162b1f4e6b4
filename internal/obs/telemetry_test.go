package obs

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
)

// TestTelemetrySnapshotResets: counters report interval deltas — a second
// snapshot after no further activity is empty — while queue-depth gauges
// carry the last observed value forward.
func TestTelemetrySnapshotResets(t *testing.T) {
	g, tm := testShape()
	m := NewTelemetry(1, g, tm)

	m.Command(cmdEvent(10, dram.CmdACT, 2))
	m.Command(cmdEvent(40, dram.CmdRD, 2))
	m.Command(cmdEvent(90, dram.CmdPRE, 2))
	m.Sched(ctrl.SchedEvent{Kind: ctrl.SchedRowMiss, Cycle: 10,
		Addr: dram.Addr{Bank: 2}, ReadQ: 7, WriteQ: 3})
	m.Table(core.TableEvent{Kind: core.TableMiss, Cycle: 10, Addr: dram.Addr{Bank: 2}})

	s1 := m.Snapshot(100)
	if s1.StartCycle != 0 || s1.Cycle != 100 {
		t.Fatalf("interval = [%d,%d), want [0,100)", s1.StartCycle, s1.Cycle)
	}
	b := bankAt(t, s1, 2)
	if b.ACT != 1 || b.RD != 1 || b.PRE != 1 || b.RowMisses != 1 || b.CrowMisses != 1 {
		t.Fatalf("bank2 counters = %+v", b.BankCounters)
	}
	if b.ActiveCycles != 80 {
		t.Fatalf("ActiveCycles = %d, want 80 (open cycles 10..90)", b.ActiveCycles)
	}
	if c := s1.Channels[0]; c.Sched != 1 || c.ReadQ != 7 || c.WriteQ != 3 {
		t.Fatalf("channel counters = %+v", c)
	}

	// No activity: the next interval's counters are zero, but the queue
	// gauges still read their last values.
	s2 := m.Snapshot(200)
	if s2.StartCycle != 100 || s2.Cycle != 200 {
		t.Fatalf("interval 2 = [%d,%d), want [100,200)", s2.StartCycle, s2.Cycle)
	}
	if !s2.Empty() {
		t.Fatalf("second snapshot not empty: %+v", s2)
	}
	if b2 := bankAt(t, s2, 2); b2.BankCounters != (BankCounters{}) {
		t.Fatalf("bank2 counters not reset: %+v", b2.BankCounters)
	}
	if c := s2.Channels[0]; c.Sched != 0 || c.ReadQ != 7 || c.WriteQ != 3 {
		t.Fatalf("gauges did not persist / counters did not reset: %+v", c)
	}
}

// TestTelemetryOpenRowSpansBoundary: a row open across a snapshot boundary
// has its residency split — credited up to the cut in the first interval and
// from the cut onward in the second — with no cycles double-counted or lost.
func TestTelemetryOpenRowSpansBoundary(t *testing.T) {
	g, tm := testShape()
	m := NewTelemetry(1, g, tm)

	m.Command(cmdEvent(50, dram.CmdACT, 0)) // stays open past the cut at 100
	s1 := m.Snapshot(100)
	if got := bankAt(t, s1, 0).ActiveCycles; got != 50 {
		t.Fatalf("interval 1 ActiveCycles = %d, want 50 (cycles 50..100)", got)
	}

	m.Command(cmdEvent(130, dram.CmdPRE, 0))
	s2 := m.Snapshot(200)
	if got := bankAt(t, s2, 0).ActiveCycles; got != 30 {
		t.Fatalf("interval 2 ActiveCycles = %d, want 30 (cycles 100..130)", got)
	}
}

// TestTelemetryResidencyUnderMASA: with SALP-MASA one bank holds several open
// subarrays at once, and the bank counts as active while any of them is open —
// not from the latest ACT to the first PRE.
func TestTelemetryResidencyUnderMASA(t *testing.T) {
	g, tm := testShape()
	m := NewTelemetry(1, g, tm)
	at := func(cycle int64, cmd dram.Command, row int) {
		e := cmdEvent(cycle, cmd, 0)
		e.Addr.Row = row
		m.Command(e)
	}
	at(100, dram.CmdACT, 1)
	at(150, dram.CmdACT, g.RowsPerSubarray+1) // a second subarray of bank 0
	at(200, dram.CmdPRE, 1)
	at(300, dram.CmdPRE, g.RowsPerSubarray+1)
	if got := bankAt(t, m.Snapshot(400), 0).ActiveCycles; got != 200 {
		t.Fatalf("ActiveCycles = %d, want 200 (a row open over cycles 100..300)", got)
	}
}

// TestTelemetryRefreshAttribution: all-bank REF counts on the channel,
// REFpb on its bank with tRFCpb of blocked cycles.
func TestTelemetryRefreshAttribution(t *testing.T) {
	g, tm := testShape()
	m := NewTelemetry(2, g, tm)

	ref := dram.CmdEvent{Cmd: dram.CmdREF, Cycle: 10, CopyRow: -1}
	ref.Addr = dram.Addr{Channel: 1}
	m.Command(ref)
	refpb := dram.CmdEvent{Cmd: dram.CmdREFpb, Cycle: 20, CopyRow: -1}
	refpb.Addr = dram.Addr{Channel: 1, Bank: 5}
	m.Command(refpb)

	s := m.Snapshot(100)
	if s.Channels[0].REF != 0 || s.Channels[1].REF != 1 {
		t.Fatalf("channel REF = %d/%d, want 0/1", s.Channels[0].REF, s.Channels[1].REF)
	}
	for _, b := range s.Banks {
		if b.Channel == 1 && b.Bank == 5 {
			if b.REF != 1 || b.RefreshCycles != int64(tm.RFCpb) {
				t.Fatalf("bank refresh = %d refs, %d cycles, want 1 ref, %d cycles",
					b.REF, b.RefreshCycles, tm.RFCpb)
			}
			return
		}
	}
	t.Fatal("channel 1 bank 5 not in snapshot")
}

// TestTelemetryActVariants: ACT-t and ACT-c are attributed separately from
// conventional ACTs, and CROW hits/misses land on their bank.
func TestTelemetryActVariants(t *testing.T) {
	g, tm := testShape()
	m := NewTelemetry(1, g, tm)

	m.Command(cmdEvent(10, dram.CmdACTt, 1))
	m.Command(cmdEvent(20, dram.CmdACTc, 1))
	m.Command(cmdEvent(30, dram.CmdACT, 1))
	m.Table(core.TableEvent{Kind: core.TableHit, Cycle: 10, Addr: dram.Addr{Bank: 1}})

	b := bankAt(t, m.Snapshot(100), 1)
	if b.ACT != 1 || b.ActT != 1 || b.ActC != 1 {
		t.Fatalf("ACT/ActT/ActC = %d/%d/%d, want 1/1/1", b.ACT, b.ActT, b.ActC)
	}
	if b.CrowHits != 1 {
		t.Fatalf("CrowHits = %d, want 1", b.CrowHits)
	}
}

func bankAt(t *testing.T, s IntervalSnapshot, bank int) BankSnapshot {
	t.Helper()
	for _, b := range s.Banks {
		if b.Channel == 0 && b.Rank == 0 && b.Bank == bank {
			return b
		}
	}
	t.Fatalf("bank %d not present in snapshot", bank)
	return BankSnapshot{}
}
