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
	if c.CanACT(dram.Addr{Bank: 0, Row: 1}, 10, dram.ActSingle) {
		t.Error("refreshing bank must be blocked during tRFCpb")
	}
	if !c.CanACT(dram.Addr{Bank: 1, Row: 1}, 10, dram.ActSingle) {
		t.Error("other banks must stay accessible during REFpb")
	}
	if !c.CanACT(dram.Addr{Bank: 0, Row: 1}, int64(tm.RFCpb), dram.ActSingle) {
		t.Error("bank must reopen after tRFCpb")
	}
	if tm.RFCpb >= tm.RFC {
		t.Error("tRFCpb must be shorter than tRFCab")
	}
}

func TestRefreshPostponement(t *testing.T) {
	g := dram.Std(0)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	cfg := DefaultConfig(0, g, tm)
	cfg.MaxPostpone = 8
	c := New(cfg, &core.Baseline{T: tm})

	// Keep demand queued continuously across several tREFI: refreshes
	// must be deferred (not issued mid-stream).
	done := 0
	refill := func(now int64) {
		for i := 0; i < 8; i++ {
			c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 5, Col: (done + i) % 128}, Done: func(int64, uint64) { done++ }}, now)
		}
	}
	refill(0)
	horizon := int64(tm.REFI)*3 + 100
	for now := int64(1); now <= horizon; now++ {
		c.Tick(now)
		if rq, _ := c.QueueLens(); rq < 2 {
			refill(now)
		}
	}
	deferredAt3 := c.Stats.Refreshes
	if deferredAt3 > 1 {
		t.Errorf("with postponement and queued demand, at most 1 refresh expected by 3 tREFI, got %d", deferredAt3)
	}
	// Stop demand: the controller must catch up on owed refreshes.
	for now := horizon + 1; now <= horizon+int64(tm.REFI); now++ {
		c.Tick(now)
	}
	if c.Stats.Refreshes < 3 {
		t.Errorf("owed refreshes must be caught up once idle, got %d", c.Stats.Refreshes)
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
		if rq, _ := c.QueueLens(); rq < 2 {
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
