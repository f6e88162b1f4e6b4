// Package oracle is an end-to-end correctness oracle for the simulator: it
// watches the raw command stream of every channel (via dram.CommandObserver)
// and independently validates cross-layer invariants that dram.Checker, one
// channel's timing rules as a table of command-pair rows, cannot see:
//
//  1. A shadow data memory tracks a per-row data token through writes, ACT-c
//     copies, copy-row remaps, and refresh, and asserts that every RD
//     returns the last value written to that address — catching
//     CROW-cache/CROW-table coherence bugs (a redirect to a copy row that
//     was never copied, a lost write to a remapped row, an eviction of a
//     partially-restored pair) end to end.
//  2. A refresh-deadline monitor replays the architectural refresh sweep
//     (each REF/REFpb refreshes the next T.RowsPerRef rows of a bank) and
//     asserts every row group is refreshed within its retention window,
//     including the relaxed window of CROW-ref's multiplied tREFW.
//  3. Scheduler-legality and accounting checks: no activation serves more
//     column commands than the FR-FCFS-Cap allows, and the command counts
//     that the energy model integrates (activate restore windows, burst
//     cycles) match the device's reported statistics exactly.
//
// The oracle is deliberately independent: it consumes only device commands
// and the architectural configuration, never the mechanism's tables or the
// controller's queues, so a bookkeeping bug in those layers cannot hide
// itself.
package oracle

import (
	"fmt"
	"math/bits"
	"reflect"

	"crowdram/internal/dram"
	"crowdram/internal/metrics"
)

// Config describes the system under observation.
type Config struct {
	Channels int
	Geo      dram.Geometry
	T        dram.Timing

	// Cap is the FR-FCFS-Cap bound on column commands per activation
	// (0 disables the check).
	Cap int

	// DataChecks enables the shadow data memory (invariant 1). It is
	// switched off for mechanisms whose data semantics the shadow model
	// does not cover: the idealized mechanisms (which issue fictional
	// two-row activations with no physical copy rows) and TL-DRAM (whose
	// near-segment activations reuse the single-row command).
	DataChecks bool

	// RefreshMultiplier scales the retention window (CROW-ref runs at 2);
	// 0 disables the refresh-deadline monitor (idealized no-refresh runs).
	RefreshMultiplier int
	// BankRefresh (a bank-granular refresh policy: perbank or samebank)
	// and MaxPostpone size the deadline slack the elastic refresh scheduler
	// is allowed to consume.
	BankRefresh bool
	MaxPostpone int

	// MaxSamples bounds how many violation descriptions are retained
	// verbatim (counts are always complete). Default 20.
	MaxSamples int
}

// Findings is the oracle's verdict: violation counts per invariant class and
// up to MaxSamples verbatim descriptions.
type Findings struct {
	Counts  metrics.Counters
	Samples []string
}

// Total returns the total number of violations.
func (f Findings) Total() int64 { return f.Counts.Total() }

// Oracle validates one system; attach Observer(ch) to each channel device.
type Oracle struct {
	cfg   Config
	crow  dram.CROWTimings
	chans []*channelState

	// The flat indexing every channel shares: a row's subarray is
	// row >> subShift, a bank holds rowsPerBank physical rows (its copy rows
	// counted) of columns columns each, and groups row groups that refresh
	// together.
	subShift, subsPerBank, rowsPerBank, columns, groups int

	counts  metrics.Counters
	samples []string
}

// New builds an oracle for a system of identical channels.
func New(cfg Config) *Oracle {
	if cfg.MaxSamples == 0 {
		cfg.MaxSamples = 20
	}
	g := cfg.Geo
	if g.RowsPerSubarray&(g.RowsPerSubarray-1) != 0 {
		panic(fmt.Sprintf("oracle: %d rows per subarray is not a power of two", g.RowsPerSubarray))
	}
	o := &Oracle{cfg: cfg, crow: cfg.T.CROW(), counts: metrics.Counters{}}
	o.subShift = bits.TrailingZeros(uint(g.RowsPerSubarray))
	o.subsPerBank = (g.RowsPerBank-1)>>o.subShift + 1
	o.rowsPerBank = g.RowsPerBank + o.subsPerBank*g.CopyRows
	o.columns = g.ColumnsPerRow()
	if cfg.T.RowsPerRef > 0 {
		o.groups = g.RowsPerBank / cfg.T.RowsPerRef
	}
	o.chans = make([]*channelState, cfg.Channels)
	for ch := range o.chans {
		o.chans[ch] = &channelState{
			o: o, ch: ch,
			open:    make([]openAct, g.Ranks*g.Banks*o.subsPerBank),
			rows:    map[int]*rowData{},
			refRow:  make([]int, g.Ranks),
			lastRef: make([][]int64, g.Ranks*g.Banks),
		}
	}
	return o
}

// Observer returns the command observer for channel ch.
func (o *Oracle) Observer(ch int) dram.CommandObserver { return o.chans[ch] }

// Findings returns the violations found so far.
func (o *Oracle) Findings() Findings {
	counts := metrics.Counters{}
	counts.Merge(o.counts)
	return Findings{Counts: counts, Samples: append([]string(nil), o.samples...)}
}

func (o *Oracle) violate(ch int, class, format string, args ...any) {
	o.counts.Add(class, 1)
	if len(o.samples) < o.cfg.MaxSamples {
		o.samples = append(o.samples, fmt.Sprintf("ch%d %s: %s", ch, class, fmt.Sprintf(format, args...)))
	}
}

// deadline returns the maximum tolerated gap between refreshes of one row
// group: the (possibly multiplied) retention window plus the slack the
// elastic scheduler may consume by postponing refreshes.
func (o *Oracle) deadline() int64 {
	mult := int64(o.cfg.RefreshMultiplier)
	interval := int64(o.cfg.T.REFI) * mult
	budget := int64(o.cfg.MaxPostpone)
	if o.cfg.BankRefresh {
		interval /= int64(o.cfg.Geo.Banks)
		if budget == 0 {
			budget = int64(o.cfg.Geo.Banks)
		}
	}
	return o.cfg.T.RefWindow*mult + (budget+2)*interval + int64(o.cfg.T.RFC)
}

// Finish runs the end-of-simulation checks: no row group may be staler than
// its retention deadline at the final cycle.
func (o *Oracle) Finish(endCycle int64) {
	if o.cfg.RefreshMultiplier <= 0 {
		return
	}
	dl := o.deadline()
	rpr := o.cfg.T.RowsPerRef
	stale := func(ch, bank, g int, last int64) {
		o.violate(ch, "refresh-deadline",
			"r%d/b%d rows %d..%d last refreshed @%d, end @%d exceeds deadline %d",
			bank/o.cfg.Geo.Banks, bank%o.cfg.Geo.Banks, g*rpr, (g+1)*rpr-1, last, endCycle, dl)
	}
	for ch, s := range o.chans {
		for bank, lastRef := range s.lastRef {
			for g, last := range lastRef {
				if endCycle-last > dl {
					stale(ch, bank, g, last)
				}
			}
			// The groups the sweep never reached are all as stale as boot:
			// once no more samples are kept, the rest are only counted.
			for g := len(lastRef); g < o.groups && endCycle > dl; g++ {
				if len(o.samples) >= o.cfg.MaxSamples {
					o.counts.Add("refresh-deadline", int64(o.groups-g))
					break
				}
				stale(ch, bank, g, 0)
			}
		}
	}
}

// CheckStats compares the command counts the oracle accumulated for channel
// ch against the device's reported statistics. The energy model's
// per-command terms (activation restore-window integrals, burst-cycle
// counts) are pure functions of exactly these fields, so agreement here
// certifies that every command's energy event is accounted for in the
// reported totals.
func (o *Oracle) CheckStats(ch int, got dram.Stats) {
	want, have := reflect.ValueOf(o.chans[ch].stats), reflect.ValueOf(got)
	for i := 0; i < want.NumField(); i++ {
		name := want.Type().Field(i).Name
		if w, h := want.Field(i).Int(), have.Field(i).Int(); !cycleIntegral[name] && w != h {
			o.violate(ch, "stats-mismatch", "%s: oracle counted %d, device reports %d", name, w, h)
		}
	}
}

// cycleIntegral names the dram.Stats fields the device integrates cycle by
// cycle in Tick, which the command stream cannot see (the energy model's
// background terms); every other field is a function of the command stream,
// is mirrored in channelState.stats and is compared by CheckStats.
var cycleIntegral = map[string]bool{
	"OpenBufferCycles": true, "ActiveStandbyCycles": true, "RefreshBusyCycles": true,
}
