package ctrl

import (
	"math/rand"
	"reflect"
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/metrics"
	"crowdram/internal/retention"
)

func newBaseline(copyRows int) (*Controller, dram.Timing) {
	g := dram.Std(copyRows)
	t := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := New(DefaultConfig(0, g, t), &core.Baseline{T: t})
	return c, t
}

// run ticks the controller until pred returns true or the deadline passes.
func run(t *testing.T, c *Controller, deadline int64, pred func() bool) int64 {
	t.Helper()
	for now := int64(1); now <= deadline; now++ {
		c.Tick(now)
		if pred != nil && pred() {
			return now
		}
	}
	if pred != nil {
		t.Fatalf("condition not reached within %d cycles", deadline)
	}
	return deadline
}

func TestSingleReadLatency(t *testing.T) {
	c, tm := newBaseline(0)
	var doneAt int64 = -1
	req := &Request{Type: Read, Addr: dram.Addr{Row: 5, Col: 3}, Done: func(now int64, _ uint64) { doneAt = now }}
	if !c.EnqueueRead(req, 0) {
		t.Fatal("enqueue failed")
	}
	run(t, c, 1000, func() bool { return doneAt >= 0 })
	// ACT at cycle 1, RD at 1+tRCD, data at +tCL+tBL.
	want := int64(1 + tm.RCD + tm.CL + tm.BL)
	if doneAt != want {
		t.Errorf("read completed at %d, want %d", doneAt, want)
	}
	if c.Stats.ReadsServed != 1 || c.Stats.RowMisses != 1 || c.Stats.RowHits != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

// TestWakeIsExact follows one read through the controller and checks that
// NextEvent names, at each point, the exact cycle of the next action — the
// cycle after a command, then the device's ready cycle for the next command,
// the completion, the timeout close, and finally the refresh deadline — while
// the self-checking skip confirms every cycle in between was a no-op.
func TestWakeIsExact(t *testing.T) {
	c, tm := newBaseline(0)
	c.verifyWake = true
	var doneAt int64 = -1
	req := &Request{Type: Read, Addr: dram.Addr{Row: 5, Col: 3}, Done: func(now int64, _ uint64) { doneAt = now }}
	if !c.EnqueueRead(req, 0) {
		t.Fatal("enqueue failed")
	}
	rd := int64(1 + tm.RCD)
	data := rd + int64(tm.CL+tm.BL)
	steps := []struct {
		tickTo, next int64
		what         string
	}{
		{0, 1, "an enqueue wakes the controller for the next tick"},
		{1, 2, "ACT issued: re-evaluate next cycle"},
		{2, rd, "row open, RD waits for tRCD"},
		{rd, rd + 1, "RD issued: re-evaluate next cycle"},
		{rd + 1, data, "nothing to schedule until the data returns"},
		{data, rd + c.timeout, "completion fired; the idle row closes at its timeout"},
		{rd + c.timeout, rd + c.timeout + 1, "PRE issued: re-evaluate next cycle"},
		{rd + c.timeout + 1, c.refIv, "bank closed, queues empty: sleep until the refresh deadline"},
	}
	now := int64(0)
	for _, s := range steps {
		for now < s.tickTo {
			now++
			c.Tick(now)
		}
		if got := c.NextEvent(now); got != s.next {
			t.Fatalf("after cycle %d NextEvent = %d, want %d (%s)", now, got, s.next, s.what)
		}
	}
	if doneAt != data {
		t.Errorf("read completed at %d, want %d", doneAt, data)
	}
	if c.Stats.TimeoutCloses != 1 || c.Dev.Stats.PRE != 1 {
		t.Errorf("timeout close did not happen: %+v", c.Stats)
	}
}

func TestRowHitsAvoidReactivation(t *testing.T) {
	c, _ := newBaseline(0)
	done := 0
	for i := 0; i < 4; i++ {
		req := &Request{Type: Read, Addr: dram.Addr{Row: 5, Col: i}, Done: func(int64, uint64) { done++ }}
		if !c.EnqueueRead(req, 0) {
			t.Fatal("enqueue failed")
		}
	}
	run(t, c, 2000, func() bool { return done == 4 })
	if got := c.Dev.Stats.Activations(); got != 1 {
		t.Errorf("activations = %d, want 1 (row hits)", got)
	}
	if c.Stats.RowHits != 4 {
		t.Errorf("RowHits = %d, want 4", c.Stats.RowHits)
	}
}

func TestFRFCFSCapRecyclesRow(t *testing.T) {
	g := dram.Std(0)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	cfg := DefaultConfig(0, g, tm)
	cfg.Cap = 2
	c := New(cfg, &core.Baseline{T: tm})
	done := 0
	for i := 0; i < 6; i++ {
		req := &Request{Type: Read, Addr: dram.Addr{Row: 5, Col: i}, Done: func(int64, uint64) { done++ }}
		c.EnqueueRead(req, 0)
	}
	run(t, c, 5000, func() bool { return done == 6 })
	// Cap 2 over 6 requests: 3 activations.
	if got := c.Dev.Stats.Activations(); got != 3 {
		t.Errorf("activations = %d, want 3 with cap 2", got)
	}
}

func TestRowConflictPrecharges(t *testing.T) {
	c, _ := newBaseline(0)
	done := 0
	cb := func(int64, uint64) { done++ }
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 1}, Done: cb}, 0)
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 2}, Done: cb}, 0)
	run(t, c, 3000, func() bool { return done == 2 })
	if c.Stats.RowConflicts < 1 {
		t.Errorf("RowConflicts = %d, want >= 1", c.Stats.RowConflicts)
	}
	if c.Dev.Stats.Activations() != 2 {
		t.Errorf("activations = %d, want 2", c.Dev.Stats.Activations())
	}
}

func TestTimeoutClosesIdleRow(t *testing.T) {
	c, _ := newBaseline(0)
	done := false
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 1}, Done: func(int64, uint64) { done = true }}, 0)
	run(t, c, 1000, func() bool { return done })
	// 75 ns = 120 cycles after last use, the row must close.
	run(t, c, 2000, func() bool { return c.Stats.TimeoutCloses == 1 })
	if c.Dev.OpenRow(dram.Addr{Row: 1}) != -1 {
		t.Error("row must be closed by the timeout policy")
	}
}

func TestOpenPagePolicyKeepsRowOpen(t *testing.T) {
	g := dram.Std(0)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	cfg := DefaultConfig(0, g, tm)
	cfg.RowPolicy = "open"
	c := New(cfg, &core.Baseline{T: tm})
	done := false
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 1}, Done: func(int64, uint64) { done = true }}, 0)
	run(t, c, 1000, func() bool { return done })
	run(t, c, 3000, nil)
	if c.Dev.OpenRow(dram.Addr{Row: 1}) != 1 {
		t.Error("open-page policy must keep the row open")
	}
	if c.Stats.TimeoutCloses != 0 {
		t.Error("no timeout closes under open-page")
	}
}

func TestRefreshCadence(t *testing.T) {
	c, tm := newBaseline(0)
	// Run a little over 4 refresh intervals.
	run(t, c, int64(tm.REFI)*4+100, nil)
	if c.Stats.Refreshes != 4 {
		t.Errorf("refreshes = %d, want 4", c.Stats.Refreshes)
	}
}

func TestRefreshClosesOpenRows(t *testing.T) {
	c, tm := newBaseline(0)
	cfg := c.Cfg
	_ = cfg
	// Keep a stream of row hits alive right up to the refresh deadline.
	done := 0
	for i := 0; ; i++ {
		at := int64(i * 100)
		if at > int64(tm.REFI) {
			break
		}
		c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 1, Col: i % 128}, Done: func(int64, uint64) { done++ }}, 0)
	}
	run(t, c, int64(tm.REFI)+int64(tm.RFC)+2000, func() bool { return c.Stats.Refreshes == 1 })
}

func TestCROWRefDoublesRefreshInterval(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	mech := core.NewCROW(1, g, tm)
	mech.Ref = true
	mech.LoadProfile(retention.FixedProfile(retention.Geometry{
		Channels: 1, Ranks: g.Ranks, Banks: g.Banks,
		Subarrays: g.SubarraysPerBank(), RowsPerSubarray: g.RowsPerSubarray,
	}, 3, 7))
	c := New(DefaultConfig(0, g, tm), mech)
	run(t, c, int64(tm.REFI)*4+100, nil)
	if c.Stats.Refreshes != 2 {
		t.Errorf("refreshes = %d, want 2 (doubled interval)", c.Stats.Refreshes)
	}
}

func TestNoRefreshIdeal(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	c := New(DefaultConfig(0, g, tm), &core.Ideal{T: tm, NoRefresh: true})
	run(t, c, int64(tm.REFI)*4+100, nil)
	if c.Stats.Refreshes != 0 {
		t.Errorf("refreshes = %d, want 0", c.Stats.Refreshes)
	}
}

func TestWriteDrainAndForwarding(t *testing.T) {
	c, _ := newBaseline(0)
	for i := 0; i < 50; i++ {
		ok := c.EnqueueWrite(&Request{Type: Write, Addr: dram.Addr{Row: i % 4, Col: i}}, 0)
		if !ok {
			t.Fatal("write queue full too early")
		}
	}
	// A read to a queued write's address forwards immediately.
	fwd := false
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 0, Col: 0}, Done: func(int64, uint64) { fwd = true }}, 0)
	run(t, c, 10, func() bool { return fwd })
	if c.Stats.Forwarded != 1 {
		t.Errorf("Forwarded = %d, want 1", c.Stats.Forwarded)
	}
	// Draining must eventually write everything back.
	run(t, c, 50000, func() bool { return len(c.writeQ) == 0 })
	if c.Stats.WritesServed != 50 {
		t.Errorf("WritesServed = %d, want 50", c.Stats.WritesServed)
	}
}

func TestReadQueueBackpressure(t *testing.T) {
	c, _ := newBaseline(0)
	n := 0
	for i := 0; ; i++ {
		if !c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: i}}, 0) {
			break
		}
		n++
	}
	if n != c.Cfg.ReadQ {
		t.Errorf("accepted %d reads, want queue capacity %d", n, c.Cfg.ReadQ)
	}
}

func TestCROWCacheEndToEnd(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	mech := core.NewCROW(1, g, tm)
	mech.Cache = true
	c := New(DefaultConfig(0, g, tm), mech)
	k := dram.NewChecker(c.Dev)

	done := 0
	cb := func(int64, uint64) { done++ }
	// First activation of row 1: ACT-c. Conflict with row 2, then
	// reactivate row 1: ACT-t.
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 1}, Done: cb}, 0)
	run(t, c, 2000, func() bool { return done == 1 })
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 2}, Done: cb}, 0)
	run(t, c, 4000, func() bool { return done == 2 })
	c.EnqueueRead(&Request{Type: Read, Addr: dram.Addr{Row: 1}, Done: cb}, 0)
	run(t, c, 8000, func() bool { return done == 3 })

	if c.Dev.Stats.ACTCopy < 2 {
		t.Errorf("ACT-c count = %d, want >= 2 (rows 1 and 2 cached)", c.Dev.Stats.ACTCopy)
	}
	if c.Dev.Stats.ACTTwo < 1 {
		t.Errorf("ACT-t count = %d, want >= 1 (row 1 re-activation)", c.Dev.Stats.ACTTwo)
	}
	if mech.Stats[core.TableHit] < 1 {
		t.Errorf("CROW-table hits = %d, want >= 1", mech.Stats[core.TableHit])
	}
	for _, v := range k.Violations {
		t.Errorf("checker: %s", v)
	}
}

// copyOnce is a baseline that queues one ACT-c data copy, the way CROW's
// RowHammer remaps queue theirs.
type copyOnce struct {
	core.Baseline
	op     core.CopyOp
	queued bool
}

func (m *copyOnce) NextCopy(int, int64) (core.CopyOp, bool) {
	if !m.queued {
		return core.CopyOp{}, false
	}
	m.queued = false
	return m.op, true
}

func TestMechCopyExecution(t *testing.T) {
	g := dram.Std(8)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	mech := &copyOnce{Baseline: core.Baseline{T: tm}, queued: true, op: core.CopyOp{
		Addr: dram.Addr{Row: 9}, Kind: dram.ActCopy, Timing: tm.CROW().CopyFull,
	}}
	c := New(DefaultConfig(0, g, tm), mech)
	run(t, c, 2000, func() bool {
		return c.Stats.MechCopies == 1 && c.Dev.OpenRow(dram.Addr{Row: 9}) == -1
	})
	if c.Dev.Stats.ACTCopy != 1 {
		t.Errorf("device ACT-c = %d, want 1", c.Dev.Stats.ACTCopy)
	}
	if c.Dev.Stats.PRE != 1 {
		t.Error("copy activation must be precharged after full restoration")
	}
}

// TestMechCopyEvictsBankOpenRow: a mechanism's copy to a closed subarray of a
// bank whose one row buffer holds another row precharges that row, as a demand
// activation would. (Finding 2(iii): it waited for something else to close the
// row, under the open row policy the next refresh, thousands of cycles on.)
func TestMechCopyEvictsBankOpenRow(t *testing.T) {
	var mech *copyOnce
	p := newProbe(t, "lpddr4", 0, func(c *Config) { c.RowPolicy = "open" }, func(g dram.Geometry, tm dram.Timing) core.Mechanism {
		mech = &copyOnce{Baseline: core.Baseline{T: tm}, op: core.CopyOp{Addr: dram.Addr{Row: g.RowsPerSubarray + 5}, Kind: dram.ActSingle}}
		return mech
	})
	var done []int64
	p.read(dram.Addr{Row: 5}, &done)
	p.run(t, func() bool { return len(done) == 1 }, nil)
	mech.queued = true
	wake := p.now
	p.read(dram.Addr{Row: 5}, &done) // the pass it wakes picks the copy up
	copied := func() bool { return p.acts[len(p.acts)-1].Addr.Row == mech.op.Addr.Row }
	p.run(t, copied, nil)
	if at, bound := p.acts[len(p.acts)-1].Cycle, wake+int64(p.tm.RTP+p.tm.RP)+4; at > bound {
		t.Errorf("the copy's ACT issued at cycle %d, %d after the wake-up: want it by %d (tRTP + tRP and a few)", at, at-wake, bound)
	}
}

// TestRandomTrafficObeysProtocol drives random requests through every
// mechanism configuration, and CROW-cache through every other standard with
// its own refresh granularity, with the independent checker attached, and
// makes sure all requests complete and no timing constraint is ever violated.
func TestRandomTrafficObeysProtocol(t *testing.T) {
	crowCache := func(g dram.Geometry, tm dram.Timing) core.Mechanism {
		m := core.NewCROW(1, g, tm)
		m.Cache = true
		return m
	}
	configs := []struct {
		name, std, refresh string
		mech               func(g dram.Geometry, tm dram.Timing) core.Mechanism
		masa               bool
		open               bool
	}{
		{"baseline", "lpddr4", "", func(g dram.Geometry, tm dram.Timing) core.Mechanism { return &core.Baseline{T: tm} }, false, false},
		{"crow-cache", "lpddr4", "", crowCache, false, false},
		{"crow-cache+ref", "lpddr4", "", func(g dram.Geometry, tm dram.Timing) core.Mechanism {
			m := core.NewCROW(1, g, tm)
			m.Cache = true
			m.Ref = true
			m.LoadProfile(retention.FixedProfile(retention.Geometry{
				Channels: 1, Ranks: 1, Banks: 8, Subarrays: 128, RowsPerSubarray: 512,
			}, 3, 11))
			return m
		}, false, false},
		{"ideal", "lpddr4", "", func(g dram.Geometry, tm dram.Timing) core.Mechanism { return &core.Ideal{T: tm} }, false, false},
		{"salp-masa", "lpddr4", "", func(g dram.Geometry, tm dram.Timing) core.Mechanism { return &core.Baseline{T: tm} }, true, true},
		{"ddr4", "ddr4", "allbank", crowCache, false, false},
		{"ddr5/samebank", "ddr5", "samebank", crowCache, false, false},
		{"hbm2/perbank", "hbm2", "perbank", crowCache, false, false},
		{"lpddr5/perbank", "lpddr5", "perbank", crowCache, false, false},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			s, err := dram.StandardByName(cfg.std)
			if err != nil {
				t.Fatal(err)
			}
			g := s.Geometry(8)
			tm := s.Timing(dram.Density8Gb, s.RefWindowMS, g)
			ctrlCfg := DefaultConfig(0, g, tm)
			ctrlCfg.MASA, ctrlCfg.Refresh, ctrlCfg.Features = cfg.masa, cfg.refresh, s.Features
			if cfg.open {
				ctrlCfg.RowPolicy = "open"
			}
			c := New(ctrlCfg, cfg.mech(g, tm))
			c.verifyWake = true // every skipped tick re-runs the pass and must be a no-op
			k := dram.NewChecker(c.Dev)

			rng := rand.New(rand.NewSource(1))
			const total = 300
			done := 0
			issued := 0
			for now := int64(1); done < total && now < 2_000_000; now++ {
				if issued < total && rng.Intn(4) == 0 {
					a := dram.Addr{
						Bank: rng.Intn(8),
						Row:  rng.Intn(64), // few rows: force reuse + conflicts
						Col:  rng.Intn(128),
					}
					if g.Ranks > 1 {
						a.Rank = rng.Intn(g.Ranks)
					}
					a.Col %= g.ColumnsPerRow()
					if rng.Intn(4) == 0 {
						if c.EnqueueWrite(&Request{Type: Write, Addr: a}, now) {
							issued++
							done++ // writes complete at accept
						}
					} else {
						if c.EnqueueRead(&Request{Type: Read, Addr: a, Done: func(int64, uint64) { done++ }}, now) {
							issued++
						}
					}
				}
				c.Tick(now)
			}
			// Drain writes.
			for now := int64(2_000_001); now < 2_200_000; now++ {
				c.Tick(now)
				if c.Idle() {
					break
				}
			}
			if done < total {
				t.Fatalf("%s: only %d/%d requests completed", cfg.name, done, total)
			}
			if len(k.Violations) > 0 {
				for _, v := range k.Violations[:min(5, len(k.Violations))] {
					t.Errorf("checker: %s", v)
				}
			}
		})
	}
}

// planCounter counts PlanActivate calls on their way to the wrapped mechanism.
type planCounter struct {
	core.Mechanism
	calls int64
}

func (p *planCounter) PlanActivate(a dram.Addr, cycle int64) core.ActDecision {
	p.calls++
	return p.Mechanism.PlanActivate(a, cycle)
}

// TestPlanActivateOncePerActivation pins core.Mechanism's contract for
// PlanActivate: the controller asks on the cycle the ACT issues, so calls equal
// the activations performed for requests plus the restore-before-evict ones. A
// conflict-heavy stream keeps both queues full — the state in which the
// controller used to ask for every waiting request on every pass, 8.3 times an
// activation — under crow-cache with two copy rows and eager restore, so plans
// of every kind (ACT-t, ACT-c, restore-first, plain ACT) occur.
func TestPlanActivateOncePerActivation(t *testing.T) {
	g := dram.Std(2)
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	crow := core.NewCROW(1, g, tm)
	crow.Cache, crow.EagerRestore = true, true
	mech := &planCounter{Mechanism: crow}
	c := New(DefaultConfig(0, g, tm), mech)

	rng := rand.New(rand.NewSource(7))
	const total = 4000
	sent, done := 0, 0
	for now := int64(1); done < total && now < 4_000_000; now++ {
		for sent < total {
			// Eight rows of one subarray per bank: two copy rows cannot hold them.
			a := dram.Addr{Bank: rng.Intn(8), Row: rng.Intn(8), Col: rng.Intn(128)}
			if rng.Intn(3) == 0 {
				if !c.EnqueueWrite(&Request{Type: Write, Addr: a}, now) {
					break
				}
				done++
			} else if !c.EnqueueRead(&Request{Type: Read, Addr: a, Done: func(int64, uint64) { done++ }}, now) {
				break
			}
			sent++
		}
		c.Tick(now)
	}
	if done < total {
		t.Fatalf("only %d/%d requests completed", done, total)
	}
	if crow.Stats[core.TableRestore] == 0 || crow.Stats[core.TableHit] == 0 || crow.Stats[core.TableCopy] == 0 {
		t.Fatalf("stream must exercise restores, ACT-t and ACT-c: %+v", crow.Stats)
	}
	if want := c.Stats.RowMisses + crow.Stats[core.TableRestore]; mech.calls != want {
		t.Errorf("PlanActivate called %d times for %d request activations + %d restore activations",
			mech.calls, c.Stats.RowMisses, crow.Stats[core.TableRestore])
	}
}

// TestStatsSubCoversEveryField sets every int64 field of two Stats to distinct
// values and requires metrics.Sub and metrics.Add to combine each with its own
// counterpart: a counter added to Stats but skipped by the arithmetic would
// otherwise report its whole-run value for the measured interval, silently.
func TestStatsSubCoversEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is not an int64: decide how metrics.Sub treats it and extend this test", av.Type().Field(i).Name)
		}
		av.Field(i).SetInt(int64(1000 * (i + 1)))
		bv.Field(i).SetInt(int64(i + 1))
	}
	diff, sum := reflect.ValueOf(metrics.Sub(a, b)), reflect.ValueOf(metrics.Add(a, b))
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if got, want := diff.Field(i).Int(), int64(999*(i+1)); got != want {
			t.Errorf("Sub: %s = %d, want %d", name, got, want)
		}
		if got, want := sum.Field(i).Int(), int64(1001*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
	}
}
