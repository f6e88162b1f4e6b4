package ctrl

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

func TestPerBankRefreshCadence(t *testing.T) {
	g := dram.Std(0)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	cfg := DefaultConfig(0, g, tm)
	cfg.Refresh = "perbank"
	c := New(cfg, &core.Baseline{T: tm})
	// Per-bank interval is tREFI/banks, so over 2*tREFI we expect ~16
	// REFpb commands (vs 2 REFab).
	run(t, c, int64(tm.REFI)*2+100, nil)
	if c.Stats.Refreshes < 14 || c.Stats.Refreshes > 17 {
		t.Errorf("REFpb count = %d, want ~16 over 2 tREFI", c.Stats.Refreshes)
	}
	if c.Dev.Stats.REF != 0 {
		t.Error("per-bank mode must not issue REFab")
	}
	if c.Dev.Stats.REFpb != c.Stats.Refreshes {
		t.Error("all refreshes must be REFpb")
	}
}

func TestPerBankRefreshKeepsOtherBanksAccessible(t *testing.T) {
	g := dram.Std(0)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := dram.NewChannel(g, tm)
	// REFpb to bank 0 blocks bank 0 but not bank 1.
	c.REFpb(0, 0, 0)
	if at := c.ReadyACT(dram.Addr{Bank: 0, Row: 1}); at != int64(tm.RFCpb) {
		t.Errorf("refreshing bank ready at %d, want it blocked until tRFCpb %d", at, tm.RFCpb)
	}
	if at := c.ReadyACT(dram.Addr{Bank: 1, Row: 1}); at != 1 {
		t.Errorf("other bank ready at %d, want cycle 1: banks outside a REFpb stay accessible", at)
	}
	if tm.RFCpb >= tm.RFC {
		t.Error("tRFCpb must be shorter than tRFCab")
	}
}

// refCounter counts the refresh commands (REF or REFpb) each rank receives.
type refCounter []int64

func (n refCounter) OnCommand(e dram.CmdEvent) {
	if e.Cmd == dram.CmdREF || e.Cmd == dram.CmdREFpb {
		n[e.Addr.Rank]++
	}
}

// TestRefreshPostponement keeps demand queued on rank 0 only, across three
// tREFI: rank 0 must defer its refreshes up to the postponement budget while
// any other rank refreshes on schedule, and once the demand stops rank 0 must
// catch up. HBM2 is the one standard with two ranks, and no crow.Options run
// reaches two-rank all-bank refresh, so its cases are pinned here.
func TestRefreshPostponement(t *testing.T) {
	for _, tc := range []struct{ std, refresh string }{
		{"lpddr4", "allbank"},
		{"hbm2", "allbank"},
		{"hbm2", "perbank"},
	} {
		t.Run(tc.std+"/"+tc.refresh, func(t *testing.T) {
			s, err := dram.StandardByName(tc.std)
			if err != nil {
				t.Fatal(err)
			}
			g := s.Geometry(0)
			tm := s.Timing(dram.Density8Gb, s.RefWindowMS, g)
			cfg := DefaultConfig(0, g, tm)
			cfg.Features, cfg.Refresh, cfg.MaxPostpone = s.Features, tc.refresh, 8
			c := New(cfg, &core.Baseline{T: tm})
			k := dram.NewChecker(c.Dev)
			refs := make(refCounter, g.Ranks)
			c.Dev.Attach(refs)
			iv := int64(tm.REFI)
			if tc.refresh == "perbank" {
				iv /= int64(g.Banks)
			}

			// Keep demand queued on rank 0 continuously: its refreshes must be
			// deferred (not issued mid-stream) up to the budget.
			done := 0
			refill := func(now int64) {
				for i := 0; i < 8; i++ {
					c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 5, Col: (done + i) % 32}, Done: func(int64, uint64) { done++ }}, now)
				}
			}
			refill(0)
			horizon := int64(tm.REFI)*3 + 100
			for now := int64(1); now <= horizon; now++ {
				c.Tick(now)
				if len(c.readQ) < 2 {
					refill(now)
				}
			}
			due := horizon / iv
			if most := due - min(due, 8) + 1; refs[0] > most {
				t.Errorf("rank 0 under queued demand: %d refreshes of %d due, want at most %d", refs[0], due, most)
			}
			for r := 1; r < g.Ranks; r++ {
				if refs[r] < due-1 {
					t.Errorf("rank %d without demand: %d refreshes of %d due, want it on schedule", r, refs[r], due)
				}
			}
			// Stop demand: rank 0 must catch up on its owed refreshes.
			end := horizon + int64(tm.REFI)
			for now := horizon + 1; now <= end; now++ {
				c.Tick(now)
			}
			for r := range refs {
				if refs[r] < end/iv-1 {
					t.Errorf("rank %d once idle: %d refreshes of %d due, want them caught up", r, refs[r], end/iv)
				}
			}
			for _, v := range k.Violations {
				t.Errorf("checker: %s", v)
			}
		})
	}
}

func TestPostponementLimitForcesRefresh(t *testing.T) {
	g := dram.Std(0)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	cfg := DefaultConfig(0, g, tm)
	cfg.MaxPostpone = 2
	c := New(cfg, &core.Baseline{T: tm})
	done := 0
	refill := func(now int64) {
		for i := 0; i < 8; i++ {
			c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 5, Col: (done + i) % 128}, Done: func(int64, uint64) { done++ }}, now)
		}
	}
	refill(0)
	// After 4 intervals with constant demand, owed exceeds the limit of
	// 2, so at least one forced refresh must have been issued.
	horizon := int64(tm.REFI)*4 + 200
	for now := int64(1); now <= horizon; now++ {
		c.Tick(now)
		if len(c.readQ) < 2 {
			refill(now)
		}
	}
	if c.Stats.Refreshes == 0 {
		t.Error("exceeding the postponement limit must force a refresh")
	}
}

func TestPerBankRefreshWithCROWRef(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	mech := core.NewCROW(1, g, tm)
	mech.Cache = true
	cfg := DefaultConfig(0, g, tm)
	cfg.Refresh = "perbank"
	c := New(cfg, mech)
	k := dram.NewChecker(c.Dev)
	done := 0
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 1}, Done: func(int64, uint64) { done++ }}, 0)
	run(t, c, int64(tm.REFI)+2000, func() bool {
		return done == 1 && c.Stats.Refreshes >= 4
	})
	for _, v := range k.Violations {
		t.Errorf("checker: %s", v)
	}
}
