package dram

import "testing"

// recorder is a trivial CommandObserver counting what it sees.
type recorder struct {
	cmds []Command
}

func (r *recorder) OnCommand(e CmdEvent) { r.cmds = append(r.cmds, e.Cmd) }

// TestObserverFanOut: every attached observer receives every issued command,
// in issue order — the property that lets the correctness oracle, the event
// tracer, and interval telemetry coexist on one channel.
func TestObserverFanOut(t *testing.T) {
	c, k := testChannel(t, 0)
	first, second := &recorder{}, &recorder{}
	c.Attach(first)
	c.Attach(second)
	if len(c.obs) != 3 { // testChannel's checker rides the same fan-out
		t.Fatalf("%d observers attached, want 3", len(c.obs))
	}

	a := Addr{Bank: 0, Row: 100, Col: 5}
	c.ACT(a, 0, ActSingle, c.T.Base(), -1)
	c.RD(a, int64(c.T.RCD))
	c.PRE(a, int64(c.T.RAS))

	want := []Command{CmdACT, CmdRD, CmdPRE}
	for name, r := range map[string]*recorder{"first": first, "second": second} {
		if len(r.cmds) != len(want) {
			t.Fatalf("%s observer saw %d commands, want %d", name, len(r.cmds), len(want))
		}
		for i, cmd := range want {
			if r.cmds[i] != cmd {
				t.Errorf("%s observer cmds[%d] = %v, want %v", name, i, r.cmds[i], cmd)
			}
		}
	}
	requireClean(t, k)
}

// TestObserverFanOutLateAttach: an observer attached mid-stream sees only
// commands issued after its Attach.
func TestObserverFanOutLateAttach(t *testing.T) {
	c, _ := testChannel(t, 0)
	early := &recorder{}
	c.Attach(early)

	a := Addr{Bank: 1, Row: 7, Col: 0}
	c.ACT(a, 0, ActSingle, c.T.Base(), -1)

	late := &recorder{}
	c.Attach(late)
	c.PRE(a, int64(c.T.RAS))

	if len(early.cmds) != 2 {
		t.Errorf("early observer saw %d commands, want 2", len(early.cmds))
	}
	if len(late.cmds) != 1 || late.cmds[0] != CmdPRE {
		t.Errorf("late observer saw %v, want [PRE]", late.cmds)
	}
}
