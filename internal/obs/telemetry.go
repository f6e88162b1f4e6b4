package obs

import (
	"crowdram/internal/core"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
)

// BankCounters accumulates one bank's activity over a telemetry interval.
// All counters are interval-local: Snapshot reports and resets them.
type BankCounters struct {
	// Command counts on this bank.
	ACT  int64 `json:"act"`
	ActT int64 `json:"actT"` // ACT-t: CROW-table hits activating both rows
	ActC int64 `json:"actC"` // ACT-c: copy activations
	RD   int64 `json:"rd"`
	WR   int64 `json:"wr"`
	PRE  int64 `json:"pre"`
	REF  int64 `json:"ref"` // per-bank REFpb issues on this bank

	// State residency, in DRAM cycles of the interval.
	ActiveCycles  int64 `json:"activeCycles"`  // a row was open
	RefreshCycles int64 `json:"refreshCycles"` // bank blocked by REFpb

	// Scheduler attribution for requests hitting this bank.
	RowHits      int64 `json:"rowHits"`
	RowMisses    int64 `json:"rowMisses"`
	RowConflicts int64 `json:"rowConflicts"`

	// CROW-table attribution.
	CrowHits   int64 `json:"crowHits"`
	CrowMisses int64 `json:"crowMisses"`
}

// ChannelCounters accumulates channel-wide activity over an interval.
type ChannelCounters struct {
	REF    int64 `json:"ref"`    // all-bank REF issues
	ReadQ  int   `json:"readQ"`  // read-queue depth at the last decision
	WriteQ int   `json:"writeQ"` // write-queue depth at the last decision
	Sched  int64 `json:"sched"`  // scheduler decisions observed
}

// BankSnapshot is one bank's interval counters with its coordinates.
type BankSnapshot struct {
	Channel int `json:"channel"`
	Rank    int `json:"rank"`
	Bank    int `json:"bank"`
	BankCounters
}

// IntervalSnapshot is one telemetry interval: every bank's counters plus
// per-channel aggregates, covering DRAM cycles [StartCycle, Cycle).
type IntervalSnapshot struct {
	StartCycle int64             `json:"startCycle"`
	Cycle      int64             `json:"cycle"`
	Banks      []BankSnapshot    `json:"banks"`
	Channels   []ChannelCounters `json:"channels"`
}

// Empty reports whether the interval saw no activity at all.
func (s *IntervalSnapshot) Empty() bool {
	for i := range s.Channels {
		if s.Channels[i].Sched != 0 || s.Channels[i].REF != 0 {
			return false
		}
	}
	for i := range s.Banks {
		b := &s.Banks[i]
		if b.ACT != 0 || b.ActT != 0 || b.ActC != 0 || b.RD != 0 || b.WR != 0 ||
			b.PRE != 0 || b.REF != 0 || b.ActiveCycles != 0 {
			return false
		}
	}
	return true
}

// bankState is the persistent (cross-interval) per-bank state telemetry
// needs to integrate residency: how many of the bank's subarrays hold an open
// row (several, under SALP-MASA) and since when at least one has.
type bankState struct {
	openSince int64
	open      int
}

// Telemetry collects per-bank and per-channel interval counters from the
// three observer streams. Like the tracer it is single-goroutine.
type Telemetry struct {
	channels int
	geo      dram.Geometry
	t        dram.Timing

	startCycle int64
	banks      []BankCounters
	chans      []ChannelCounters
	state      []bankState
}

// NewTelemetry returns a collector for the given system shape.
func NewTelemetry(channels int, geo dram.Geometry, t dram.Timing) *Telemetry {
	n := channels * geo.Ranks * geo.Banks
	return &Telemetry{
		channels: channels, geo: geo, t: t,
		banks: make([]BankCounters, n),
		chans: make([]ChannelCounters, channels),
		state: make([]bankState, n),
	}
}

func (m *Telemetry) idx(ch, rank, bank int) int {
	return (ch*m.geo.Ranks+rank)*m.geo.Banks + bank
}

// Command folds one DRAM command into the counters.
func (m *Telemetry) Command(e dram.CmdEvent) {
	if e.Cmd == dram.CmdREF {
		m.chans[e.Addr.Channel].REF++
		return
	}
	i := m.idx(e.Addr.Channel, e.Addr.Rank, e.Addr.Bank)
	b := &m.banks[i]
	switch {
	case e.Cmd.IsACT():
		switch e.Cmd {
		case dram.CmdACTt:
			b.ActT++
		case dram.CmdACTc, dram.CmdACTcr:
			b.ActC++
		default:
			b.ACT++
		}
		if st := &m.state[i]; st.open == 0 {
			st.openSince = e.Cycle
		}
		m.state[i].open++
	case e.Cmd == dram.CmdRD:
		b.RD++
	case e.Cmd == dram.CmdWR:
		b.WR++
	case e.Cmd == dram.CmdPRE:
		b.PRE++
		if st := &m.state[i]; st.open > 0 {
			st.open--
			if st.open == 0 {
				b.ActiveCycles += e.Cycle - st.openSince
			}
		}
	case e.Cmd == dram.CmdREFpb:
		b.REF++
		b.RefreshCycles += int64(m.t.RFCpb)
	}
}

// Sched folds one scheduler decision into the counters.
func (m *Telemetry) Sched(e ctrl.SchedEvent) {
	c := &m.chans[e.Addr.Channel]
	c.Sched++
	c.ReadQ, c.WriteQ = e.ReadQ, e.WriteQ
	switch e.Kind {
	case ctrl.SchedRowHit, ctrl.SchedRowMiss, ctrl.SchedRowConflict:
		b := &m.banks[m.idx(e.Addr.Channel, e.Addr.Rank, e.Addr.Bank)]
		switch e.Kind {
		case ctrl.SchedRowHit:
			b.RowHits++
		case ctrl.SchedRowMiss:
			b.RowMisses++
		default:
			b.RowConflicts++
		}
	}
}

// Table folds one CROW-table event into the counters.
func (m *Telemetry) Table(e core.TableEvent) {
	b := &m.banks[m.idx(e.Addr.Channel, e.Addr.Rank, e.Addr.Bank)]
	switch e.Kind {
	case core.TableHit:
		b.CrowHits++
	case core.TableMiss:
		b.CrowMisses++
	}
}

// Snapshot cuts the interval at `cycle`: it returns the accumulated
// counters (crediting banks still open with their residency up to the cut)
// and resets them, so each snapshot reports interval deltas, not cumulative
// totals. Queue depths carry the last observed value forward rather than
// resetting — a gauge, not a counter.
func (m *Telemetry) Snapshot(cycle int64) IntervalSnapshot {
	s := IntervalSnapshot{
		StartCycle: m.startCycle,
		Cycle:      cycle,
		Banks:      make([]BankSnapshot, 0, len(m.banks)),
		Channels:   make([]ChannelCounters, len(m.chans)),
	}
	copy(s.Channels, m.chans)
	for ch := 0; ch < m.channels; ch++ {
		for r := 0; r < m.geo.Ranks; r++ {
			for bk := 0; bk < m.geo.Banks; bk++ {
				i := m.idx(ch, r, bk)
				b := m.banks[i]
				if st := &m.state[i]; st.open > 0 {
					// Credit the open span so far and restart the
					// residency accounting at the cut.
					b.ActiveCycles += cycle - st.openSince
					st.openSince = cycle
				}
				s.Banks = append(s.Banks, BankSnapshot{
					Channel: ch, Rank: r, Bank: bk, BankCounters: b,
				})
			}
		}
	}
	// Reset counters; gauges (queue depths) persist.
	for i := range m.banks {
		m.banks[i] = BankCounters{}
	}
	for i := range m.chans {
		m.chans[i] = ChannelCounters{
			ReadQ: m.chans[i].ReadQ, WriteQ: m.chans[i].WriteQ,
		}
	}
	m.startCycle = cycle
	return s
}
