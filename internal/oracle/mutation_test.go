package oracle_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/oracle"
	"crowdram/internal/retention"
	"crowdram/internal/sim"
	"crowdram/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/mutations.golden from this build's oracle")

// recording is what one run showed its oracle: every channel's command
// stream, the statistics each device reported, and the final cycle.
type recording struct {
	cfg    oracle.Config
	events [][]dram.CmdEvent
	stats  []dram.Stats
	end    int64
}

type recorder struct{ events []dram.CmdEvent }

func (r *recorder) OnCommand(e dram.CmdEvent) { r.events = append(r.events, e) }

// record runs crow-cache+ref under four memory-intensive cores for a few
// thousand commands a channel (refreshes, ACT-t/ACT-c/ACT-copyrow, partial
// restoration and weak-row remaps all occur) and returns what the oracle of
// that run was shown, with the oracle configured the way sim.New does it.
func record(tb testing.TB) *recording {
	tb.Helper()
	cfg := sim.Default(8, dram.Density(64), 64)
	cfg.WarmupInsts, cfg.MeasureInsts = 10_000, 100_000
	mech := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
	mech.Cache, mech.Ref = true, true
	mech.LoadProfile(retention.FixedProfile(retention.Geometry{
		Channels: cfg.Channels, Ranks: cfg.Geo.Ranks, Banks: cfg.Geo.Banks,
		Subarrays: cfg.Geo.SubarraysPerBank(), RowsPerSubarray: cfg.Geo.RowsPerSubarray,
	}, 3, cfg.Seed))
	var gens []trace.Generator
	for i, name := range []string{"mcf", "lbm", "omnetpp", "stream-copy"} {
		app, err := trace.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		gens = append(gens, app.Gen(cfg.Seed+int64(i)))
	}
	sys := sim.New(cfg, mech, gens)
	defer sys.Release()
	recs := make([]*recorder, cfg.Channels)
	for ch, c := range sys.Ctrls {
		recs[ch] = &recorder{}
		c.Dev.Attach(recs[ch])
	}
	sys.Run()
	rec := &recording{cfg: oracle.Config{
		Channels: cfg.Channels, Geo: cfg.Geo, T: cfg.T,
		Cap: sys.Ctrls[0].HitCap(), DataChecks: true,
		RefreshMultiplier: mech.RefreshMultiplier(),
		BankRefresh:       sys.Ctrls[0].BankRefresh(),
		MaxPostpone:       cfg.Ctrl.MaxPostpone,
	}}
	for ch, c := range sys.Ctrls {
		evs := recs[ch].events
		rec.events = append(rec.events, evs)
		rec.stats = append(rec.stats, c.Dev.Stats)
		if n := len(evs); n > 0 && evs[n-1].Cycle >= rec.end {
			rec.end = evs[n-1].Cycle + 1
		}
	}
	return rec
}

// verdict replays events (rec's streams, one of them possibly mutated) into a
// fresh oracle, channel after channel, and closes the run the way sim does.
func verdict(rec *recording, events [][]dram.CmdEvent) oracle.Findings {
	o := oracle.New(rec.cfg)
	for ch, evs := range events {
		obs := o.Observer(ch)
		for _, e := range evs {
			obs.OnCommand(e)
		}
	}
	o.Finish(rec.end)
	for ch := range events {
		o.CheckStats(ch, rec.stats[ch])
	}
	return o.Findings()
}

// stream is what a mutation's eligibility test may ask about event i of one
// channel's stream beyond the event itself.
type stream struct {
	evs []dram.CmdEvent
	// actOf[i] is the index of the activation a column command or precharge
	// belongs to (the last ACT of its subarray), -1 for anything else.
	actOf []int
	// nextKind[i] is, for an activation, the kind of the next activation of
	// the same row, -1 if there is none.
	nextKind []dram.ActKind
	// written[i] reports whether a WR to the activation's row came before it,
	// prevPartial[i] whether the row's previous activation closed short of
	// full restoration.
	written, prevPartial []bool
}

func newStream(evs []dram.CmdEvent, g dram.Geometry) *stream {
	type sub struct{ rank, bank, sub int }
	type row struct{ rank, bank, row int }
	c := &stream{evs: evs, actOf: make([]int, len(evs)), nextKind: make([]dram.ActKind, len(evs)),
		written: make([]bool, len(evs)), prevPartial: make([]bool, len(evs))}
	open := map[sub]int{}
	wrote, partial := map[row]bool{}, map[row]bool{}
	for i, e := range evs {
		c.actOf[i] = -1
		k := sub{e.Addr.Rank, e.Addr.Bank, g.Subarray(e.Addr.Row)}
		switch {
		case e.Cmd.IsACT():
			open[k] = i
			r := row{e.Addr.Rank, e.Addr.Bank, e.Addr.Row}
			c.written[i], c.prevPartial[i] = wrote[r], partial[r]
		case e.Cmd == dram.CmdRD || e.Cmd == dram.CmdWR || e.Cmd == dram.CmdPRE:
			if a, ok := open[k]; ok {
				c.actOf[i] = a
				if e.Cmd == dram.CmdPRE {
					partial[row{e.Addr.Rank, e.Addr.Bank, evs[a].Addr.Row}] = !e.FullyRestored
				}
			}
			if e.Cmd == dram.CmdWR {
				wrote[row{e.Addr.Rank, e.Addr.Bank, e.Addr.Row}] = true
			}
		}
	}
	next := map[row]dram.ActKind{}
	for i := len(evs) - 1; i >= 0; i-- {
		if e := evs[i]; e.Cmd.IsACT() {
			r := row{e.Addr.Rank, e.Addr.Bank, e.Addr.Row}
			if k, ok := next[r]; ok {
				c.nextKind[i] = k
			} else {
				c.nextKind[i] = -1
			}
			next[r] = e.Kind
		}
	}
	return c
}

// mutation is one single-event corruption of a command stream: applied at a
// seeded choice among the events ok accepts, it returns the corrupted stream.
type mutation struct {
	name  string
	ok    func(c *stream, i int) bool
	apply func(rec *recording, evs []dram.CmdEvent, i int) []dram.CmdEvent
}

// edit returns a mutation body that rewrites event i in place.
func edit(f func(rec *recording, e *dram.CmdEvent)) func(*recording, []dram.CmdEvent, int) []dram.CmdEvent {
	return func(rec *recording, evs []dram.CmdEvent, i int) []dram.CmdEvent {
		f(rec, &evs[i])
		return evs
	}
}

func drop(_ *recording, evs []dram.CmdEvent, i int) []dram.CmdEvent {
	return append(evs[:i], evs[i+1:]...)
}

func isCmd(cmd dram.Command) func(*stream, int) bool {
	return func(c *stream, i int) bool { return c.evs[i].Cmd == cmd }
}

var mutations = []mutation{
	{"ACT-t names the next copy row", isCmd(dram.CmdACTt),
		edit(func(rec *recording, e *dram.CmdEvent) { e.CopyRow = (e.CopyRow + 1) % rec.cfg.Geo.CopyRows })},
	{"ACT-t of a partial pair becomes ACT-c",
		func(c *stream, i int) bool { return c.evs[i].Cmd == dram.CmdACTt && c.prevPartial[i] },
		edit(func(_ *recording, e *dram.CmdEvent) { e.Cmd, e.Kind = dram.CmdACTc, dram.ActCopy })},
	{"a WR is dropped", isCmd(dram.CmdWR), drop},
	{"PRE of a pair reports partial restoration",
		func(c *stream, i int) bool {
			e := c.evs[i]
			return e.Cmd == dram.CmdPRE && e.FullyRestored && c.actOf[i] >= 0 && c.nextKind[c.actOf[i]] == dram.ActTwo
		},
		edit(func(_ *recording, e *dram.CmdEvent) { e.FullyRestored = false })},
	{"a REF is skipped", isCmd(dram.CmdREF), drop},
	{"a RD repeats past the cap", isCmd(dram.CmdRD),
		func(rec *recording, evs []dram.CmdEvent, i int) []dram.CmdEvent {
			out := append([]dram.CmdEvent(nil), evs[:i+1]...)
			for n := 0; n < rec.cfg.Cap; n++ {
				out = append(out, evs[i])
			}
			return append(out, evs[i+1:]...)
		}},
	{"ACT-t of a written row becomes ACT-copyrow to the next way",
		func(c *stream, i int) bool { return c.evs[i].Cmd == dram.CmdACTt && c.written[i] },
		edit(func(rec *recording, e *dram.CmdEvent) {
			e.Cmd, e.Kind, e.CopyRow = dram.CmdACTcr, dram.ActCopyRow, (e.CopyRow+1)%rec.cfg.Geo.CopyRows
		})},
	{"ACT names a row past the bank", func(c *stream, i int) bool { return c.evs[i].Cmd.IsACT() },
		edit(func(rec *recording, e *dram.CmdEvent) { e.Addr.Row += rec.cfg.Geo.RowsPerBank })},
	{"ACT-t names a copy row past the subarray", isCmd(dram.CmdACTt),
		edit(func(rec *recording, e *dram.CmdEvent) { e.CopyRow = rec.cfg.Geo.CopyRows })},
	{"WR names a column past the row", isCmd(dram.CmdWR),
		edit(func(rec *recording, e *dram.CmdEvent) { e.Addr.Col = rec.cfg.Geo.ColumnsPerRow() })},
	{"PRE names a bank past the rank", isCmd(dram.CmdPRE),
		edit(func(rec *recording, e *dram.CmdEvent) { e.Addr.Bank = rec.cfg.Geo.Banks })},
	{"RD names the open row's neighbour", isCmd(dram.CmdRD),
		edit(func(_ *recording, e *dram.CmdEvent) { e.Addr.Row ^= 1 })},
}

func writeFindings(b *bytes.Buffer, f oracle.Findings) {
	fmt.Fprintf(b, "total %d: %s\n", f.Total(), f.Counts)
	for _, s := range f.Samples {
		fmt.Fprintf(b, "  %s\n", s)
	}
}

// mutationReport renders the oracle's verdict on the clean recording and on
// each mutation of it. The choice of channel and event is seeded, so the
// report is a function of the recorded stream and the oracle alone.
func mutationReport(t *testing.T, rec *recording) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== the recorded run\n")
	for ch, evs := range rec.events {
		fmt.Fprintf(&b, "ch%d: %d commands\n", ch, len(evs))
	}
	clean := verdict(rec, rec.events)
	writeFindings(&b, clean)
	if clean.Total() != 0 {
		t.Errorf("the unmutated recording raises violations: %v", clean.Counts)
	}
	rng := rand.New(rand.NewSource(23))
	for _, m := range mutations {
		// Start at a seeded channel; move on while a stream has no such event.
		ch, c, eligible := rng.Intn(len(rec.events)), (*stream)(nil), []int(nil)
		for tries := 0; len(eligible) == 0; tries++ {
			if tries == len(rec.events) {
				t.Fatalf("%s: no channel's stream has an eligible event", m.name)
			}
			ch = (ch + 1) % len(rec.events)
			c = newStream(rec.events[ch], rec.cfg.Geo)
			for i := range c.evs {
				if m.ok(c, i) {
					eligible = append(eligible, i)
				}
			}
		}
		i := eligible[rng.Intn(len(eligible))]
		events := append([][]dram.CmdEvent(nil), rec.events...)
		events[ch] = m.apply(rec, append([]dram.CmdEvent(nil), rec.events[ch]...), i)
		e := rec.events[ch][i]
		fmt.Fprintf(&b, "\n== %s (ch%d command %d of %d eligible: %v r%d/b%d/%d col %d @%d)\n",
			m.name, ch, i, len(eligible), e.Cmd, e.Addr.Rank, e.Addr.Bank, e.Addr.Row, e.Addr.Col, e.Cycle)
		f := verdict(rec, events)
		writeFindings(&b, f)
		if f.Total() == 0 {
			t.Errorf("%s: the oracle saw nothing", m.name)
		}
	}
	return b.Bytes()
}

// staleReadReport renders the verdict on a scripted stream in which a write
// reaches only one row of a remapped pair and is read back through the other
// (the recorded run never reads a column back after writing it: the LLC
// absorbs that), in both directions.
func staleReadReport() []byte {
	g := dram.Geometry{
		Ranks: 1, Banks: 2, RowsPerBank: 64, RowsPerSubarray: 16,
		CopyRows: 2, RowBytes: 1024, LineBytes: 64,
	}
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	o := oracle.New(oracle.Config{Channels: 1, Geo: g, T: tm, Cap: 16, DataChecks: true})
	cycle := int64(0)
	emit := func(e dram.CmdEvent) {
		cycle += 100
		e.Cycle = cycle
		o.Observer(0).OnCommand(e)
	}
	act := func(kind dram.ActKind, copyRow int) {
		emit(dram.CmdEvent{Cmd: dram.CmdACT + dram.Command(kind), Addr: dram.Addr{Row: 9}, Kind: kind, CopyRow: copyRow, Plan: tm.Base()})
	}
	col := func(cmd dram.Command, c int) {
		emit(dram.CmdEvent{Cmd: cmd, Addr: dram.Addr{Row: 9, Col: c}, CopyRow: -1})
	}
	pre := func() {
		emit(dram.CmdEvent{Cmd: dram.CmdPRE, Addr: dram.Addr{Row: 9}, CopyRow: -1, FullyRestored: true})
	}
	act(dram.ActCopyRow, 0) // a boot-time remap: adopted
	col(dram.CmdWR, 2)      // reaches the copy row alone
	pre()
	act(dram.ActSingle, -1)
	col(dram.CmdRD, 2) // the regular row never saw the write
	col(dram.CmdRD, 2) // one bug, one violation: the shadow was resynced
	col(dram.CmdRD, 3)
	col(dram.CmdWR, 2) // and now the copy row is the stale one
	pre()
	act(dram.ActCopyRow, 0)
	col(dram.CmdRD, 2)
	pre()
	act(dram.ActTwo, 0) // both resynced by now: a coherent pair
	col(dram.CmdRD, 2)
	pre()
	var b bytes.Buffer
	fmt.Fprintf(&b, "\n== a write that reaches one row of a remapped pair, read back through the other\n")
	writeFindings(&b, o.Findings())
	return b.Bytes()
}

// finishReport renders Finish's verdict on a hand-made two-channel system in
// which some banks are refreshed per bank, one rank all-bank, one refresh
// arrives late and most banks never see one: the order of the retained
// samples (channel, rank, bank, group) is part of what is pinned.
func finishReport() []byte {
	g := dram.Geometry{
		Ranks: 2, Banks: 3, RowsPerBank: 64, RowsPerSubarray: 16,
		CopyRows: 2, RowBytes: 1024, LineBytes: 64,
	}
	tm := dram.LPDDR4(dram.Density8Gb, 64, g)
	tm.RowsPerRef = 16 // four row groups a bank
	cfg := oracle.Config{Channels: 2, Geo: g, T: tm, DataChecks: true, RefreshMultiplier: 1, MaxSamples: 100}
	// Oracle.deadline for this configuration: no postponement budget, all-bank
	// interval.
	deadline := tm.RefWindow + 2*int64(tm.REFI) + int64(tm.RFC)
	o := oracle.New(cfg)
	refpb := func(ch, rank, bank int, cycle int64) {
		o.Observer(ch).OnCommand(dram.CmdEvent{Cmd: dram.CmdREFpb, Addr: dram.Addr{Rank: rank, Bank: bank}, Cycle: cycle, CopyRow: -1})
	}
	ref := func(ch, rank int, cycle int64) {
		o.Observer(ch).OnCommand(dram.CmdEvent{Cmd: dram.CmdREF, Addr: dram.Addr{Rank: rank}, Cycle: cycle, CopyRow: -1})
	}
	// ch0 rank0: bank 1 alone is swept per bank (the window never advances:
	// bank 2 is never reached), once in time and once late.
	refpb(0, 0, 1, deadline/2)
	refpb(0, 0, 1, deadline+deadline/2+1)
	// ch1 rank1: two all-bank refreshes (groups 0 and 1 of every bank), the
	// second one late; ch1 rank0 and ch0 rank1 never see a refresh.
	ref(1, 1, deadline/2)
	ref(1, 1, deadline+7)
	o.Finish(deadline + deadline/2 + 2)
	var b bytes.Buffer
	fmt.Fprintf(&b, "\n== Finish over untouched banks (deadline %d)\n", deadline)
	writeFindings(&b, o.Findings())
	return b.Bytes()
}

// TestMutationVerdictsPinned holds the oracle to the verdicts — every count
// and every retained sample — that the map-based oracle of PR 23's parent gave
// on a recorded run, on twelve single-event corruptions of it, on a scripted stale
// read and on a Finish over banks no refresh touched. Regenerate (-update) only when the simulated
// command stream itself changed, never to accept a change of verdict.
func TestMutationVerdictsPinned(t *testing.T) {
	got := append(mutationReport(t, record(t)), staleReadReport()...)
	got = append(got, finishReport()...)
	path := filepath.Join("testdata", "mutations.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (generate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the oracle's verdicts drifted from testdata/mutations.golden.\n--- golden ---\n%s\n--- got ---\n%s", want, got)
	}
}
