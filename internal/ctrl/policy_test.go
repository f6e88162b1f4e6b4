package ctrl

import (
	"strings"
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// newPolicyCtrl builds a zero-copy-row baseline controller with the given
// policy names (empty strings keep the Table 2 defaults).
func newPolicyCtrl(sched, rowPol, refresh string) (*Controller, dram.Timing) {
	g := dram.Std(0)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	cfg := DefaultConfig(0, g, tm)
	cfg.Scheduler = sched
	cfg.RowPolicy = rowPol
	cfg.Refresh = refresh
	return New(cfg, &core.Baseline{T: tm}), tm
}

func TestPolicyRegistriesListChoices(t *testing.T) {
	cases := []struct {
		kind  string
		err   error
		names []string
	}{
		{"scheduler", CheckScheduler("rr"), []string{"fcfs", "frfcfs", "frfcfs-cap"}},
		{"row policy", CheckRowPolicy("adaptive"), []string{"closed", "open", "timeout"}},
		{"refresh policy", CheckRefreshPolicy("rowgranular"), []string{"allbank", "perbank", "samebank"}},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Fatalf("%s: unknown name accepted", c.kind)
		}
		for _, want := range c.names {
			if !strings.Contains(c.err.Error(), want) {
				t.Errorf("%s error %q does not list %q", c.kind, c.err, want)
			}
		}
	}
}

func TestPolicyNamesSorted(t *testing.T) {
	for _, c := range []struct {
		kind string
		got  []string
		want string
	}{
		{"schedulers", SchedulerNames(), "fcfs,frfcfs,frfcfs-cap"},
		{"row policies", RowPolicyNames(), "closed,open,timeout"},
		{"refresh policies", sortedKeys(refreshPolicies), "allbank,perbank,samebank"},
	} {
		if got := strings.Join(c.got, ","); got != c.want {
			t.Errorf("%s = %s, want %s", c.kind, got, c.want)
		}
	}
}

func TestDefaultPoliciesResolve(t *testing.T) {
	c, _ := newPolicyCtrl("", "", "")
	sched, row, ref := c.Cfg.Scheduler, c.Cfg.RowPolicy, c.Cfg.Refresh
	if sched != DefaultScheduler || row != DefaultRowPolicy || ref != DefaultRefreshPolicy {
		t.Errorf("defaults resolved to %s/%s/%s, want %s/%s/%s",
			sched, row, ref, DefaultScheduler, DefaultRowPolicy, DefaultRefreshPolicy)
	}
}

func TestUnknownPolicyNamePanics(t *testing.T) {
	// Controller config is internal plumbing: user-supplied names are
	// validated at the crow.Options layer, so an unknown name reaching New
	// is a wiring bug and must fail loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an unknown scheduler name")
		}
	}()
	newPolicyCtrl("round-robin", "", "")
}

// TestFCFSServesInOrder pins the difference between fcfs and the FR-FCFS
// family: with requests A(row 1), B(row 2), C(row 1) queued, FR-FCFS
// reorders C ahead of B (a row hit beats an older miss) while FCFS serves
// strictly in arrival order.
func TestFCFSServesInOrder(t *testing.T) {
	for _, tc := range []struct {
		sched string
		want  string
	}{
		{"fcfs", "ABC"},
		{"frfcfs", "ACB"},
		{"frfcfs-cap", "ACB"},
	} {
		c, _ := newPolicyCtrl(tc.sched, "", "")
		order := ""
		for i, r := range []struct {
			label string
			row   int
		}{{"A", 1}, {"B", 2}, {"C", 1}} {
			label := r.label
			req := &Request{Type: Read, Addr: dram.Addr{Row: r.row, Col: i},
				Done: func(int64, uint64) { order += label }}
			if !c.EnqueueRead(req, 0) {
				t.Fatal("enqueue failed")
			}
		}
		run(t, c, 2000, func() bool { return len(order) == 3 })
		if order != tc.want {
			t.Errorf("%s served %s, want %s", tc.sched, order, tc.want)
		}
	}
}

// TestClosedPolicyReactivates pins the row policies against each other with
// two same-row reads separated by a short idle gap (shorter than the 75 ns
// timeout): "closed" precharges immediately and pays a second activation,
// while "timeout" and "open" keep the row and serve a row hit.
func TestClosedPolicyReactivates(t *testing.T) {
	for _, tc := range []struct {
		rowPol   string
		wantActs int64
	}{
		{"closed", 2},
		{"timeout", 1},
		{"open", 1},
	} {
		c, _ := newPolicyCtrl("", tc.rowPol, "")
		now := int64(0)
		step := func(limit int64, pred func() bool) {
			for i := int64(0); i < limit; i++ {
				now++
				c.Tick(now)
				if pred != nil && pred() {
					return
				}
			}
			if pred != nil {
				t.Fatalf("%s: condition not reached within %d cycles", tc.rowPol, limit)
			}
		}
		read := func(col int) {
			done := false
			req := &Request{Type: Read, Addr: dram.Addr{Row: 7, Col: col},
				Done: func(int64, uint64) { done = true }}
			if !c.EnqueueRead(req, now) {
				t.Fatal("enqueue failed")
			}
			step(1000, func() bool { return done })
		}
		read(0)
		step(40, nil) // idle gap well under the 120-cycle timeout
		read(1)
		if got := c.Dev.Stats.Activations(); got != tc.wantActs {
			t.Errorf("%s: activations = %d, want %d", tc.rowPol, got, tc.wantActs)
		}
	}
}

// TestSamebankRefreshUsesPerBankMachinery checks the DDR5-style samebank
// granularity drives REFpb commands (tRFCsb rides the RFCpb slot) and never
// issues an all-bank REFab.
func TestSamebankRefreshUsesPerBankMachinery(t *testing.T) {
	c, tm := newPolicyCtrl("", "", "samebank")
	run(t, c, int64(tm.REFI)*2+100, nil)
	if c.Stats.Refreshes == 0 {
		t.Fatal("no refreshes issued over 2 tREFI")
	}
	if c.Dev.Stats.REF != 0 {
		t.Error("samebank mode must not issue REFab")
	}
	if c.Dev.Stats.REFpb != c.Stats.Refreshes {
		t.Error("all samebank refreshes must be REFpb")
	}
}
