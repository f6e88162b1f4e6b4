package ctrl

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// The closed-form probes measure the device and the controller against
// arithmetic: each drives a fixed request stream into one Controller and its
// Channel — no core, no LLC — and compares a measured rate with a number
// computed from the standard's Timing alone, so a probe cannot share a mistake
// with the code it measures. A row the model is known to get wrong is asserted
// inverted, naming its ROADMAP finding: it fails loudly once the finding is
// fixed, and is then turned around.

// probe is one controller over one channel of a standard, plus the cycle of
// every activation it issued.
type probe struct {
	*Controller
	tm   dram.Timing
	acts []dram.CmdEvent
	now  int64
}

func (p *probe) OnCommand(e dram.CmdEvent) {
	if e.Cmd.IsACT() {
		p.acts = append(p.acts, e)
	}
}

// newProbe builds the probe for standard std with its geometry (and copyRows
// copy rows), timing, device features and default refresh, then lets edit
// change the controller's configuration; mech builds the mechanism (nil: the
// baseline). The timing checker watches the stream, and the test fails on a
// violation.
func newProbe(t *testing.T, std string, copyRows int, edit func(*Config), mech func(dram.Geometry, dram.Timing) core.Mechanism) *probe {
	t.Helper()
	s, err := dram.StandardByName(std)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Geometry(copyRows)
	tm := s.Timing(dram.Density8Gb, s.RefWindowMS, g)
	cfg := DefaultConfig(0, g, tm)
	cfg.Features, cfg.Refresh = s.Features, s.Refresh
	if edit != nil {
		edit(&cfg)
	}
	var m core.Mechanism = &core.Baseline{T: tm}
	if mech != nil {
		m = mech(g, tm)
	}
	p := &probe{Controller: New(cfg, m), tm: tm}
	p.Dev.Attach(p)
	k := dram.NewChecker(p.Dev)
	t.Cleanup(func() {
		for _, v := range k.Violations {
			t.Errorf("checker: %s", v)
		}
	})
	return p
}

// read enqueues a read of a at the current cycle; its completion cycle is
// appended to done.
func (p *probe) read(a dram.Addr, done *[]int64) {
	if !p.EnqueueRead(&Request{Type: Read, Addr: a, Done: func(at int64, _ uint64) { *done = append(*done, at) }}, p.now) {
		panic("probe: read queue full")
	}
}

// run ticks until stop holds, calling feed before every tick.
func (p *probe) run(t *testing.T, stop func() bool, feed func()) {
	t.Helper()
	for deadline := p.now + 2_000_000; !stop(); {
		if p.now++; p.now > deadline {
			t.Fatalf("probe stalled at cycle %d", p.now)
		}
		if feed != nil {
			feed()
		}
		p.Tick(p.now)
	}
}

// stream keeps the read queue topped up to depth with the reads addr(0),
// addr(1), … .
func (p *probe) stream(depth int, addr func(i int) dram.Addr, done *[]int64) func() {
	i := 0
	return func() {
		for rq := len(p.readQ); rq < depth; rq++ {
			p.read(addr(i), done)
			i++
		}
	}
}

func TestClosedFormProbes(t *testing.T) {
	for _, std := range dram.StandardNames() {
		t.Run(std, func(t *testing.T) {
			t.Run("a-row-hit-bandwidth", func(t *testing.T) { probeRowHits(t, std) })
			t.Run("b-subarray-ping-pong", func(t *testing.T) { probeSubarrayPingPong(t, std) })
			t.Run("c-act-storm", func(t *testing.T) { probeACTStorm(t, std) })
			t.Run("d-refresh-busy", func(t *testing.T) { probeRefreshBusy(t, std) })
			t.Run("e-crow1-ping-pong", func(t *testing.T) { probeCROWPingPong(t, std) })
		})
	}
}

// (a) Row hits to one bank: one burst per max(tCCD, tBL), the peak bus
// bandwidth.
func probeRowHits(t *testing.T, std string) {
	p := newProbe(t, std, 0, func(c *Config) { c.Scheduler, c.RowPolicy = "frfcfs", "open" }, nil)
	const n = 32
	var done []int64
	for col := 0; col < n; col++ {
		p.read(dram.Addr{Row: 5, Col: col % p.Cfg.Geo.ColumnsPerRow()}, &done)
	}
	p.run(t, func() bool { return len(done) == n }, nil)
	want := int64(max(p.tm.CCD, p.tm.BL))
	for i := 1; i < n; i++ {
		if gap := done[i] - done[i-1]; gap != want {
			t.Fatalf("read %d completed %d cycles after read %d, want max(tCCD, tBL) = %d", i, gap, i-1, want)
		}
	}
}

// (b) Two rows in different subarrays of one bank, one read per activation
// (hit cap 1, closed page): a conventional bank serves one read per
// tRAS + tRP. Finding 2(i): without MASA the device enforces tRP only within
// the precharged subarray, so the activation of the other one issues a cycle
// after the PRE and the bank runs faster than the closed form.
func probeSubarrayPingPong(t *testing.T, std string) {
	p := newProbe(t, std, 0, func(c *Config) { c.RowPolicy, c.Cap = "closed", 1 }, nil)
	rows := [2]int{0, p.Cfg.Geo.RowsPerSubarray}
	var done []int64
	feed := p.stream(8, func(i int) dram.Addr { return dram.Addr{Row: rows[i%2], Col: i % 8} }, &done)
	p.run(t, func() bool { return len(done) == 40 }, feed)
	reads, span := int64(32), done[39]-done[7]
	want := reads * int64(p.tm.RAS+p.tm.RP)
	t.Logf("%d reads in %d cycles: %.1f a read, closed form tRAS + tRP = %d", reads, span, float64(span)/float64(reads), p.tm.RAS+p.tm.RP)
	if span >= want {
		t.Errorf("the bank now serves one read per tRAS + tRP: finding 2(i) is fixed — assert this row straight")
	}
}

// (c) An activation storm over every bank of a rank: four activations per
// max(4·tRRD, tFAW).
func probeACTStorm(t *testing.T, std string) {
	p := newProbe(t, std, 0, func(c *Config) { c.RowPolicy, c.Cap = "closed", 1 }, nil)
	banks := p.Cfg.Geo.Banks
	var done []int64
	feed := p.stream(48, func(i int) dram.Addr { return dram.Addr{Bank: i % banks, Row: i / banks % 2} }, &done)
	const skip, n = 64, 64
	p.run(t, func() bool { return len(p.acts) > skip+n }, feed)
	span := p.acts[skip+n].Cycle - p.acts[skip].Cycle
	if want := int64(n / 4 * max(4*p.tm.RRD, p.tm.FAW)); span != want {
		t.Errorf("%d activations took %d cycles, want %d (four per max(4·tRRD, tFAW) = %d)", n, span, want, max(4*p.tm.RRD, p.tm.FAW))
	}
}

// (d) Saturating demand over every bank for eight refresh intervals: the
// refresh-busy fraction is tRFC/tREFI for all-bank refresh and
// tRFCpb/tREFI per bank for per-bank and same-bank refresh, CROW-ref's
// multiplier stretches tREFI, and postponement may defer at most its budget.
// Bank-granular refresh meets that. All-bank refresh is finding 2(ii): an owed
// REF does not hold back demand activations, so under saturation the rank
// never closes and no REF issues at all.
func probeRefreshBusy(t *testing.T, std string) {
	for _, tc := range []struct {
		name, refresh string
		ref           bool
	}{{"allbank", "allbank", false}, {"perbank", "perbank", false}, {"samebank", "samebank", false}, {"allbank-crow-ref", "allbank", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var mech func(dram.Geometry, dram.Timing) core.Mechanism
			if tc.ref {
				mech = func(g dram.Geometry, tm dram.Timing) core.Mechanism {
					m := core.NewCROW(1, g, tm)
					m.Ref = true
					return m
				}
			}
			p := newProbe(t, std, 1, func(c *Config) { c.Refresh = tc.refresh }, mech)
			geo, mult := p.Cfg.Geo, int64(p.Mech.RefreshMultiplier())
			var done []int64
			feed := p.stream(48, func(i int) dram.Addr {
				return dram.Addr{Rank: i / geo.Banks % geo.Ranks, Bank: i % geo.Banks, Row: i / (geo.Banks * geo.Ranks) % 4}
			}, &done)
			cycles := 8 * int64(p.tm.REFI) * mult
			p.run(t, func() bool { return p.now >= cycles }, feed)

			units, rfc, budget := int64(geo.Ranks), int64(p.tm.RFC), int64(p.Cfg.MaxPostpone)
			if p.BankRefresh() {
				units, rfc, budget = units*int64(geo.Banks), int64(p.tm.RFCpb), int64(geo.Banks)
			}
			owed := 8 * units // refresh commands the eight intervals ask for
			got := p.Stats.Refreshes
			t.Logf("%d of %d refreshes: busy fraction %.4f, closed form %.4f", got, owed,
				float64(got*rfc)/float64(cycles*units), float64(rfc)/float64(int64(p.tm.REFI)*mult))
			floor := owed - (budget+1)*int64(geo.Ranks)
			switch {
			case p.BankRefresh() && got < floor:
				t.Errorf("bank refresh fell behind by more than its postponement budget (%d per rank)", budget)
			case !p.BankRefresh() && got >= floor:
				t.Errorf("all-bank refreshes keep pace under saturating demand: finding 2(ii) is fixed — assert this row straight")
			}
		})
	}
}

// (e) CROW-1 ping-pong of two rows in one subarray, one isolated read at a
// time: the first row is copied (ACT-c); the second finds the one copy row
// partially restored and activates alone; from then on every second
// activation is an ACT-t of the first row, and its read returns earlier by
// Table 1's tRCD delta for a partially restored pair. All-bank refresh keeps
// refresh out of the probe (its first REF falls after the last read): a
// refresh would restore the pair fully and take command-bus cycles.
func probeCROWPingPong(t *testing.T, std string) {
	p := newProbe(t, std, 1, func(c *Config) { c.RowPolicy, c.Refresh = "closed", "allbank" }, func(g dram.Geometry, tm dram.Timing) core.Mechanism {
		m := core.NewCROW(1, g, tm)
		m.Cache = true
		return m
	})
	var lat [6]int64
	for i := range lat {
		var done []int64
		at := p.now
		p.read(dram.Addr{Row: i % 2}, &done)
		p.run(t, func() bool { return len(done) == 1 }, nil)
		lat[i] = done[0] - at
		idle := p.now + 4*int64(p.tm.RAS+p.tm.RP)
		p.run(t, func() bool { return p.now >= idle }, nil)
	}
	if p.Stats.Refreshes != 0 {
		t.Fatalf("a refresh fell inside the probe")
	}
	want := []dram.Command{dram.CmdACTc, dram.CmdACT, dram.CmdACTt, dram.CmdACT, dram.CmdACTt, dram.CmdACT}
	for i, e := range p.acts {
		if len(p.acts) != len(want) || e.Cmd != want[i] {
			t.Fatalf("activation %d of %d is %v, want the sequence %v", i, len(p.acts), e.Cmd, want)
		}
	}
	drop := int64(p.tm.RCD - p.tm.CROW().TwoPartial.RCD)
	for i := 2; i < len(lat); i += 2 {
		if got := lat[i+1] - lat[i]; got != drop {
			t.Errorf("ACT-t read %d is %d cycles faster than the plain one after it, want Table 1's tRCD delta %d", i, got, drop)
		}
	}
}
