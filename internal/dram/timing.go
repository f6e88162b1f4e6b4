package dram

// Timing holds the DRAM timing parameters in command-clock cycles.
//
// The baseline values correspond to the LPDDR4-3200 configuration in Table 2
// of the CROW paper: a 1600 MHz command clock (0.625 ns per cycle) with
// tRCD/tRAS/tWR = 29/67/29 cycles (18.125/41.875/18.125 ns).
type Timing struct {
	RCD   int // ACT to RD/WR
	RAS   int // ACT to PRE
	RP    int // PRE to ACT
	WR    int // end of write data to PRE (write recovery)
	RTP   int // RD to PRE
	WTR   int // end of write data to RD (same rank)
	CCD   int // column command to column command
	RRD   int // ACT to ACT, different banks, same rank
	FAW   int // four-activate window per rank
	CL    int // RD to first data beat (read latency)
	CWL   int // WR to first data beat (write latency)
	BL    int // data burst duration on the bus
	RFC   int // refresh cycle time (all-bank REFab)
	RFCpb int // refresh cycle time (per-bank REFpb; roughly half of RFC)

	// REFI is the average refresh command interval: RefWindow divided by
	// the number of REF commands needed to cover every row.
	REFI int

	// RefWindow is the retention/refresh window in cycles (64 ms default;
	// CROW-ref stretches it). RowsPerRef rows of every bank are refreshed
	// by each REF command.
	RefWindow  int64
	RowsPerRef int

	// CycleNs is the duration of one command-clock cycle in nanoseconds
	// for the standard that produced this timing table. Zero means the
	// historical LPDDR4-3200 clock (the Cycle constant); use CycleTime to
	// read it.
	CycleNs float64
}

// CycleTime returns the command-clock cycle duration in nanoseconds,
// defaulting to the LPDDR4-3200 clock for zero-valued timing tables.
func (t Timing) CycleTime() float64 {
	if t.CycleNs > 0 {
		return t.CycleNs
	}
	return Cycle
}

// CyclesPerSecond is the LPDDR4-3200 command clock frequency.
const CyclesPerSecond = 1600e6

// Cycle is the duration of one DRAM command-clock cycle in nanoseconds.
const Cycle = 1e9 / CyclesPerSecond // 0.625 ns

// Density selects the simulated DRAM chip density, which determines the
// refresh cycle time tRFC (Figure 13 sweeps 8–64 Gbit).
type Density int

// Supported chip densities.
const (
	Density8Gb Density = 8 << iota
	Density16Gb
	Density32Gb
	Density64Gb
)

// tRFC (all-bank) per chip density, in nanoseconds. The 8 Gbit value follows
// the LPDDR4 standard; the larger densities are RAIDR-style extrapolations —
// refresh time grows near-linearly with the number of rows refreshed per
// command — since no standard defines 32/64 Gbit parts. Documented as
// estimates in DESIGN.md.
var rfcNanos = map[Density]float64{
	Density8Gb:  280,
	Density16Gb: 420,
	Density32Gb: 700,
	Density64Gb: 1200,
}

// RFCNanos returns the all-bank refresh cycle time for the density.
func (d Density) RFCNanos() float64 { return rfcNanos[d] }

// LPDDR4 returns the paper's baseline timing table (the lpddr4 standard's)
// for a chip of the given density with the given refresh window (use 64 ms,
// the paper's CROW-ref baseline; CROW-ref doubles it to 128 ms).
func LPDDR4(d Density, refWindowMS float64, g Geometry) Timing {
	return lpddr4.Timing(d, refWindowMS, g)
}

// ActKind distinguishes the activation command variants that CROW adds.
type ActKind int

// Activation variants.
const (
	// ActSingle is a conventional single-row ACT of a regular row.
	ActSingle ActKind = iota
	// ActTwo is CROW's ACT-t: simultaneous activation of a regular row and
	// its duplicate copy row, reducing tRCD (Section 4.1.2).
	ActTwo
	// ActCopy is CROW's ACT-c: activate a regular row, then its copy row
	// once the sense amplifiers have latched, duplicating the regular
	// row's data into the copy row (Section 4.1.1).
	ActCopy
	// ActCopyRow activates a copy row alone at baseline timings; CROW-ref
	// uses it to access a remapped weak regular row (Section 4.2.2).
	ActCopyRow
)

var actKindNames = [...]string{"ACT", "ACT-t", "ACT-c", "ACT-copyrow"}

func (k ActKind) String() string { return actKindNames[k] }

// CmdCycles returns the command-bus occupancy of the activation. CROW's new
// commands carry a copy-row address and take one extra cycle on the
// command/address bus (Section 4.1.5, footnote 3).
func (k ActKind) CmdCycles() int {
	if k == ActSingle {
		return 1
	}
	return 2
}

// ActTimings are the effective activation-dependent timings applied to one
// activation instance. CROW's commands change tRCD and tRAS, and writes to a
// two-row-opened pair change the effective write recovery time tWR
// (Table 1 of the paper).
type ActTimings struct {
	RCD int
	// RAS is the minimum activate-to-precharge time for data integrity.
	// For CROW's early-terminated plans it is lower than RASFull, leaving
	// the rows only partially restored.
	RAS int
	// RASFull is the activate-to-precharge time after which the activated
	// cells are fully restored (decides isFullyRestored; Section 4.1.4).
	RASFull int
	WR      int
}

// Base returns the conventional single-row activation timings.
func (t Timing) Base() ActTimings {
	return ActTimings{RCD: t.RCD, RAS: t.RAS, RASFull: t.RAS, WR: t.WR}
}

// CROWTimings is the set of timing plans used by CROW-cache, derived from
// the paper's circuit-level SPICE results (Table 1). The percentages are
// applied to the baseline LPDDR4 parameters. internal/circuit re-derives the
// same percentages from the analytical bitline model; a cross-check test
// keeps the two in agreement.
type CROWTimings struct {
	// TwoFull applies to ACT-t on a fully-restored pair with restoration
	// terminated early: tRCD −38 %, tRAS −33 %, tWR −13 %.
	TwoFull ActTimings
	// TwoPartial applies to ACT-t on a partially-restored pair with
	// restoration terminated early: tRCD −21 %, tRAS −25 %, tWR −13 %.
	TwoPartial ActTimings
	// TwoRestore applies to ACT-t issued to fully restore a pair before
	// CROW-table eviction (Section 4.1.4): tRAS −7 % (full restoration of
	// two cells), tWR +14 %. tRCD depends on the pair's current state; we
	// conservatively use the partially-restored −21 %.
	TwoRestore ActTimings
	// Copy applies to ACT-c with early-terminated restoration:
	// tRCD +0 %, tRAS −7 %, tWR −13 %.
	Copy ActTimings
	// CopyFull applies to ACT-c with full restoration: tRAS +18 %, tWR +14 %.
	CopyFull ActTimings
}

// Percentage deltas from Table 1 of the paper, shared with internal/circuit
// via cross-check tests.
const (
	TwoFullRCDDelta    = -0.38
	TwoPartialRCDDelta = -0.21
	TwoFullRASDelta    = -0.33
	TwoPartialRASDelta = -0.25
	TwoRestoreRASDelta = -0.07
	CopyEarlyRASDelta  = -0.07
	CopyFullRASDelta   = +0.18
	EarlyWRDelta       = -0.13
	FullWRDelta        = +0.14
)

// Scale stretches a timing parameter of base cycles by the fractional delta
// (-0.38 is 38 % shorter), rounded to the nearest cycle and never below one.
// Every latency mechanism derives its activation timings with it.
func Scale(base int, delta float64) int {
	v := int(float64(base)*(1+delta) + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// CROW derives the CROW-cache timing plans from the baseline parameters.
// RASFull of the two-row plans is the time to fully restore both cells
// (tRAS −7 %); for ACT-c it is the full-restoration copy time (tRAS +18 %).
func (t Timing) CROW() CROWTimings {
	twoFullRestore := Scale(t.RAS, TwoRestoreRASDelta)
	copyFullRestore := Scale(t.RAS, CopyFullRASDelta)
	return CROWTimings{
		TwoFull: ActTimings{
			RCD:     Scale(t.RCD, TwoFullRCDDelta),
			RAS:     Scale(t.RAS, TwoFullRASDelta),
			RASFull: twoFullRestore,
			WR:      Scale(t.WR, EarlyWRDelta),
		},
		TwoPartial: ActTimings{
			RCD:     Scale(t.RCD, TwoPartialRCDDelta),
			RAS:     Scale(t.RAS, TwoPartialRASDelta),
			RASFull: twoFullRestore,
			WR:      Scale(t.WR, EarlyWRDelta),
		},
		TwoRestore: ActTimings{
			RCD:     Scale(t.RCD, TwoPartialRCDDelta),
			RAS:     twoFullRestore,
			RASFull: twoFullRestore,
			WR:      Scale(t.WR, FullWRDelta),
		},
		Copy: ActTimings{
			RCD:     t.RCD,
			RAS:     Scale(t.RAS, CopyEarlyRASDelta),
			RASFull: copyFullRestore,
			WR:      Scale(t.WR, EarlyWRDelta),
		},
		CopyFull: ActTimings{
			RCD:     t.RCD,
			RAS:     copyFullRestore,
			RASFull: copyFullRestore,
			WR:      Scale(t.WR, FullWRDelta),
		},
	}
}
