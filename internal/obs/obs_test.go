package obs

import (
	"context"
	"testing"

	"crowdram/internal/dram"
)

// TestObserversNilSafe: the nil bundle (observability absent) is disabled,
// binds as a no-op, hands out no adapters, and snapshot calls are no-ops —
// so sim never branches on "is obs configured".
func TestObserversNilSafe(t *testing.T) {
	var o *Observers
	if o.Enabled() {
		t.Fatal("nil bundle reports Enabled")
	}
	g, tm := testShape()
	o.Bind(1, g, tm) // must not panic
	if o.Tracer() != nil {
		t.Fatal("nil bundle returned a consumer")
	}
	if o.CommandObserver(0) != nil || o.SchedObserver(0) != nil || o.TableObserver() != nil {
		t.Fatal("nil bundle returned an adapter")
	}
	if o.NextSnapshot() != 0 {
		t.Fatal("nil bundle has a due snapshot")
	}
	o.TakeSnapshot(100) // must not panic
	o.Finish(100)       // must not panic
}

// TestObserversZeroValueDisabled: a configured-but-empty bundle behaves like
// the nil bundle — no adapters attach, so the hot path stays observer-free.
func TestObserversZeroValueDisabled(t *testing.T) {
	o := &Observers{}
	if o.Enabled() {
		t.Fatal("zero bundle reports Enabled")
	}
	g, tm := testShape()
	o.Bind(1, g, tm)
	if o.CommandObserver(0) != nil || o.SchedObserver(0) != nil || o.TableObserver() != nil {
		t.Fatal("zero bundle returned an adapter after Bind")
	}
}

// TestObserversAdapterStampsChannel: REF/REFpb command events carry no
// channel in their address; the per-channel adapter stamps it before the
// consumers see the event.
func TestObserversAdapterStampsChannel(t *testing.T) {
	g, tm := testShape()
	o := &Observers{TraceCapacity: 16}
	o.Bind(4, g, tm)

	co := o.CommandObserver(3)
	if co == nil {
		t.Fatal("no command adapter with tracing enabled")
	}
	ref := dram.CmdEvent{Cmd: dram.CmdREF, Cycle: 10, CopyRow: -1}
	ref.Addr = dram.Addr{Rank: 0} // as dram.Channel emits it: no Channel field
	co.OnCommand(ref)

	var got int32 = -1
	o.Tracer().Events(func(e Event) { got = e.Ch })
	if got != 3 {
		t.Fatalf("traced REF on channel %d, want 3 (adapter stamp)", got)
	}
}

// TestObserversSnapshotSchedule: TakeSnapshot advances the due cycle by
// whole intervals past the cut, so idle-skip jumps across several boundaries
// collapse into one snapshot.
func TestObserversSnapshotSchedule(t *testing.T) {
	g, tm := testShape()
	var snaps []IntervalSnapshot
	o := &Observers{SnapshotEvery: 100, OnSnapshot: func(s IntervalSnapshot) {
		snaps = append(snaps, s)
	}}
	o.Bind(1, g, tm)

	if o.NextSnapshot() != 100 {
		t.Fatalf("first due cycle = %d, want 100", o.NextSnapshot())
	}
	o.TakeSnapshot(100)
	if o.NextSnapshot() != 200 {
		t.Fatalf("after cut at 100, due = %d, want 200", o.NextSnapshot())
	}

	// Idle skip jumped the clock across three boundaries: one cut, and the
	// next due cycle lands on the next boundary after the clock.
	o.TakeSnapshot(470)
	if o.NextSnapshot() != 500 {
		t.Fatalf("after cut at 470, due = %d, want 500", o.NextSnapshot())
	}
	if len(snaps) != 2 {
		t.Fatalf("delivered %d snapshots, want 2", len(snaps))
	}
	if snaps[1].StartCycle != 100 || snaps[1].Cycle != 470 {
		t.Fatalf("collapsed interval = [%d,%d), want [100,470)", snaps[1].StartCycle, snaps[1].Cycle)
	}

	// Finish flushes a trailing partial interval only if it saw activity.
	o.Finish(520)
	if len(snaps) != 2 {
		t.Fatal("Finish delivered an empty interval")
	}
	o.telem.Command(cmdEvent(530, dram.CmdACT, 0))
	o.Finish(550)
	if len(snaps) != 3 || snaps[2].Cycle != 550 {
		t.Fatalf("Finish did not flush the active trailing interval: %d snaps", len(snaps))
	}
}

// TestContextRoundTrip: With/From carry a bundle through a context — the
// out-of-band injection path that keeps observability out of the engine's
// memoization key.
func TestContextRoundTrip(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("empty context yielded a bundle")
	}
	o := &Observers{TraceCapacity: 1}
	ctx := With(context.Background(), o)
	if From(ctx) != o {
		t.Fatal("With/From did not round-trip the bundle")
	}
}
