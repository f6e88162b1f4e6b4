package sim

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/trace"
)

func verifyConfig(insts int64) Config {
	cfg := DefaultFor(lpddr4, 8, dram.Density8Gb, 64)
	cfg.Verify = true
	cfg.WarmupInsts = insts / 10
	cfg.MeasureInsts = insts
	return cfg
}

func mcfGens(t *testing.T, seed int64) []trace.Generator {
	t.Helper()
	return appGens(t, seed, "mcf")
}

// appGens builds one generator per named application, core i seeded seed+i.
// Every run needs a fresh set (generators advance as they are consumed).
func appGens(t *testing.T, seed int64, names ...string) []trace.Generator {
	t.Helper()
	gens := make([]trace.Generator, len(names))
	for i, name := range names {
		gens[i] = gen(name, seed+int64(i), t)
	}
	return gens
}

func newVerifiedCROW(cfg Config) *core.CROW {
	m := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
	m.Cache = true
	return m
}

func TestVerifyCleanCROWRun(t *testing.T) {
	cfg := verifyConfig(30_000)
	mech := newVerifiedCROW(cfg)
	res := New(cfg, mech, mcfGens(t, 1)).Run()
	if res.Verify.Total() != 0 {
		t.Fatalf("oracle violations on a clean run: %v\nsamples: %v",
			res.Verify.Counts, res.Verify.Samples)
	}
	if res.DRAM.ACTTwo == 0 {
		t.Fatal("run exercised no ACT-t commands; verification was vacuous")
	}
}

// evilCopyRow corrupts the copy-row operand of every CROW-table hit,
// redirecting ACT-t to a copy row that does not hold the activated row's
// data — the classic table-coherence bug class the oracle exists to catch.
type evilCopyRow struct {
	core.Mechanism
	ways int
}

func (e *evilCopyRow) PlanActivate(a dram.Addr, cycle int64) core.ActDecision {
	d := e.Mechanism.PlanActivate(a, cycle)
	if d.Kind == dram.ActTwo && !d.RestoreFirst {
		d.CopyRow = (d.CopyRow + 1) % e.ways
	}
	return d
}

func TestVerifyCatchesCorruptedCopyRow(t *testing.T) {
	cfg := verifyConfig(30_000)
	mech := &evilCopyRow{Mechanism: newVerifiedCROW(cfg), ways: cfg.Geo.CopyRows}
	res := New(cfg, mech, mcfGens(t, 1)).Run()
	if res.Verify.Counts["incoherent-pair"] == 0 {
		t.Fatalf("oracle missed the injected copy-row corruption: %v", res.Verify.Counts)
	}
}

// evilTiming upgrades partially-restored ACT-t activations to the
// fully-restored sensing latency — a timing-selection bug that would return
// wrong data from weakly-charged cells in real hardware.
type evilTiming struct {
	core.Mechanism
	crow dram.CROWTimings
}

func (e *evilTiming) PlanActivate(a dram.Addr, cycle int64) core.ActDecision {
	d := e.Mechanism.PlanActivate(a, cycle)
	if d.Kind == dram.ActTwo && !d.RestoreFirst && d.Timing.RCD == e.crow.TwoPartial.RCD {
		d.Timing.RCD = e.crow.TwoFull.RCD
	}
	return d
}

func TestVerifyCatchesFastSensingOfPartialPair(t *testing.T) {
	cfg := verifyConfig(30_000)
	mech := &evilTiming{Mechanism: newVerifiedCROW(cfg), crow: cfg.T.CROW()}
	res := New(cfg, mech, mcfGens(t, 1)).Run()
	if res.Verify.Counts["fast-partial-sensing"] == 0 {
		t.Fatalf("oracle missed the injected timing bug: %v", res.Verify.Counts)
	}
}
