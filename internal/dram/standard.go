package dram

import (
	"fmt"
	"strings"
)

// Standard is everything that distinguishes one memory standard from another
// at the device level, as data: the command-clock speed (and its ratio to the
// fixed 4 GHz core clock), the channel/bank/row organization, the speed-bin
// timings, the refresh model, and the optional device features the shared
// bank/rank state machine switches on. The controller, oracle, energy model,
// and tracer consume only the Timing/Geometry/Features a standard produces.
//
// The command set itself (ACT/PRE/RD/WR/REF/REFpb plus CROW's MRA variants)
// is shared: every supported standard is a row-buffer DRAM and CROW's
// substrate is standard-agnostic, which is exactly the point of the paper's
// sensitivity study. Same-bank refresh (DDR5 REFsb) rides the per-bank REFpb
// command with DDR5's tRFCsb; HBM2 pseudo-channels ride the rank dimension
// with a per-rank data bus.
type Standard struct {
	Name string
	// CycleNs is the command-clock cycle time in nanoseconds; the command
	// clock advances RatioNum ticks every RatioDen cycles of the 4 GHz core
	// clock.
	CycleNs            float64
	RatioNum, RatioDen int
	Channels           int
	// Refresh names the default refresh granularity: "allbank" (LPDDR4
	// REFab), "perbank" (HBM2 REFpb), or "samebank" (DDR5 REFsb).
	Refresh string
	// RefWindowMS is the standard's baseline retention window.
	RefWindowMS float64
	Features    Features

	// geometry is the per-channel organization without copy rows; timing
	// holds the twelve speed-bin parameters (RCD..BL). Every standard keeps
	// the 4 GiB of regular rows per channel of the paper's LPDDR4
	// configuration, and every tRFC comes from the density extrapolation
	// table (an estimate, see rfcNanos).
	geometry Geometry
	timing   Timing
}

// refsPerWindow is the number of refresh commands per retention window every
// supported standard schedules (JEDEC's 8192 for DDR-class devices).
const refsPerWindow = 8192

// standards is the one table of memory standards, sorted by name. To add one,
// add a row: TestStandardTimingSanity checks its cross-constraints and
// TestStandardTablesPinned then asks for its numbers to be committed.
var standards = []Standard{
	// DDR4-3200, JEDEC speed bin 3200AA: tRCD/tRP 13.75 ns, tRAS 32 ns,
	// tWR 15 ns, tFAW 25 ns for x8 parts.
	{
		Name: "ddr4", CycleNs: 1e9 / 1600e6, RatioNum: 2, RatioDen: 5,
		Channels: 4, Refresh: "allbank", RefWindowMS: 64,
		geometry: Geometry{Ranks: 1, Banks: 16, RowsPerBank: 32 * 1024,
			RowsPerSubarray: 512, RowBytes: 8 * 1024, LineBytes: 64},
		timing: Timing{RCD: 22, RAS: 52, RP: 22, WR: 24, RTP: 12, WTR: 12,
			CCD: 8, RRD: 8, FAW: 40, CL: 22, CWL: 16, BL: 8},
	},
	// DDR5-4800 (a 2400 MHz command clock), JEDEC speed bin 4800B: tRCD/tRP
	// ~15.8 ns, tRAS 32 ns, tWR 30 ns. The same-bank refresh time tRFCsb is
	// modelled as half of tRFC (an estimate), carried in the RFCpb slot that
	// the per-bank refresh machinery consumes.
	{
		Name: "ddr5", CycleNs: 1e9 / 2400e6, RatioNum: 3, RatioDen: 5,
		Channels: 4, Refresh: "samebank", RefWindowMS: 32,
		geometry: Geometry{Ranks: 1, Banks: 32, RowsPerBank: 16 * 1024,
			RowsPerSubarray: 512, RowBytes: 8 * 1024, LineBytes: 64},
		timing: Timing{RCD: 38, RAS: 77, RP: 38, WR: 72, RTP: 18, WTR: 24,
			CCD: 8, RRD: 12, FAW: 32, CL: 40, CWL: 38, BL: 8},
	},
	// HBM2 at 2 Gb/s/pin, a 1000 MHz command clock: with a 1 ns cycle the
	// table is nearly the nanosecond spec itself (tRCD/tRP 14 ns, tRAS 34 ns,
	// tFAW 16 ns). One channel is two pseudo-channels (the rank dimension,
	// each with its own data bus) of 16 banks with 2 KiB rows, and eight
	// channels make a stack; a 64-byte line on a 64-bit pseudo-channel bus is
	// a 4-cycle burst.
	{
		Name: "hbm2", CycleNs: 1, RatioNum: 1, RatioDen: 4,
		Channels: 8, Refresh: "perbank", RefWindowMS: 32,
		Features: Features{PerRankDataBus: true},
		geometry: Geometry{Ranks: 2, Banks: 16, RowsPerBank: 16 * 1024,
			RowsPerSubarray: 512, RowBytes: 2 * 1024, LineBytes: 64},
		timing: Timing{RCD: 14, RAS: 34, RP: 14, WR: 16, RTP: 7, WTR: 8,
			CCD: 4, RRD: 4, FAW: 16, CL: 14, CWL: 7, BL: 4},
	},
	// LPDDR4-3200, the paper's Table 2: a 1600 MHz command clock with
	// tRCD/tRAS/tWR = 29/67/29 cycles (18.125/41.875/18.125 ns); 1 rank,
	// 8 banks, 64 K rows per bank in 128 subarrays, an 8 KiB row buffer.
	{
		Name: "lpddr4", CycleNs: Cycle, RatioNum: 2, RatioDen: 5,
		Channels: 4, Refresh: "allbank", RefWindowMS: 64,
		geometry: Geometry{Ranks: 1, Banks: 8, RowsPerBank: 64 * 1024,
			RowsPerSubarray: 512, RowBytes: 8 * 1024, LineBytes: 64},
		timing: Timing{RCD: 29, RAS: 67, RP: 29, WR: 29, RTP: 12, WTR: 16,
			CCD: 8, RRD: 16, FAW: 64, CL: 28, CWL: 14, BL: 8},
	},
	// LPDDR5-6400 on CK, an 800 MHz command clock: data moves on the 4:1 WCK,
	// but every parameter the controller schedules against is specified in CK
	// cycles. The JEDEC nanosecond spec (tRCD 18, tRAS 42, tRPpb 18, tWR 34,
	// tFAW 20) rounded to the 1.25 ns CK; a 64-byte line is a 4-CK burst;
	// tRFCpb is half of tRFCab as in LPDDR4.
	{
		Name: "lpddr5", CycleNs: 1e9 / 800e6, RatioNum: 1, RatioDen: 5,
		Channels: 4, Refresh: "perbank", RefWindowMS: 32,
		geometry: Geometry{Ranks: 1, Banks: 16, RowsPerBank: 32 * 1024,
			RowsPerSubarray: 512, RowBytes: 8 * 1024, LineBytes: 64},
		timing: Timing{RCD: 15, RAS: 34, RP: 15, WR: 27, RTP: 6, WTR: 8,
			CCD: 4, RRD: 6, FAW: 16, CL: 15, CWL: 9, BL: 4},
	},
}

// lpddr4 is the paper's row, the one Std and LPDDR4 are views of.
var lpddr4, _ = StandardByName("lpddr4")

// StandardByName looks a standard up; the error lists the names.
func StandardByName(name string) (*Standard, error) {
	for i := range standards {
		if standards[i].Name == name {
			return &standards[i], nil
		}
	}
	return nil, fmt.Errorf("dram: unknown standard %q (registered: %s)", name, strings.Join(StandardNames(), ", "))
}

// StandardNames returns the standard names, sorted.
func StandardNames() []string {
	names := make([]string, len(standards))
	for i := range standards {
		names[i] = standards[i].Name
	}
	return names
}

// Geometry returns the per-channel organization with the given number of
// CROW copy rows per subarray.
func (s *Standard) Geometry(copyRows int) Geometry {
	g := s.geometry
	g.CopyRows = copyRows
	return g
}

// Timing builds the timing table for a chip of the given density and
// retention window (CROW-ref stretches the default one): the speed-bin
// parameters plus the refresh fields, which every standard derives the same
// way from its cycle time, the density's tRFC and refsPerWindow. The
// per-bank (or same-bank) refresh time is half of tRFC.
func (s *Standard) Timing(d Density, refWindowMS float64, g Geometry) Timing {
	t := s.timing
	t.CycleNs = s.CycleNs
	t.RFC = int(d.RFCNanos()/s.CycleNs + 0.5)
	t.RFCpb = int(d.RFCNanos()/2/s.CycleNs + 0.5)
	t.RefWindow = int64(refWindowMS * 1e6 / s.CycleNs)
	t.REFI = int(t.RefWindow / refsPerWindow)
	t.RowsPerRef = g.RowsPerBank / refsPerWindow
	return t
}
