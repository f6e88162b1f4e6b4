package dram

import (
	"fmt"
	"sort"
	"strings"
)

// Standard bundles everything that distinguishes one memory standard from
// another at the device level: the command-clock speed (and its ratio to the
// fixed 4 GHz core clock), the channel/bank/row organization, the timing
// table, the refresh model, and the optional device features the shared
// bank/rank state machine switches on. The controller, oracle, energy model,
// and tracer consume only the Timing/Geometry/Features a standard produces,
// so a new backend plugs in without touching them.
//
// The command set itself (ACT/PRE/RD/WR/REF/REFpb plus CROW's MRA variants)
// is shared: every supported standard is a row-buffer DRAM and CROW's
// substrate is standard-agnostic, which is exactly the point of the paper's
// sensitivity study. Same-bank refresh (DDR5 REFsb) rides the per-bank REFpb
// command with DDR5's tRFCsb; HBM2 pseudo-channels ride the rank dimension
// with a per-rank data bus.
type Standard interface {
	// Name is the registry key ("lpddr4", "ddr5", "hbm2").
	Name() string
	// CycleNs is the command-clock cycle time in nanoseconds.
	CycleNs() float64
	// ClockRatio returns num/den such that the command clock advances num
	// ticks every den cycles of the 4 GHz core clock.
	ClockRatio() (num, den int)
	// Channels is the standard's default channel count.
	Channels() int
	// Geometry returns the per-channel organization with the given number
	// of CROW copy rows per subarray.
	Geometry(copyRows int) Geometry
	// Timing builds the timing table for a chip of the given density and
	// retention window.
	Timing(d Density, refWindowMS float64, g Geometry) Timing
	// DefaultRefresh names the standard's refresh granularity: "allbank"
	// (LPDDR4 REFab), "perbank" (HBM2 REFpb), or "samebank" (DDR5 REFsb).
	DefaultRefresh() string
	// DefaultRefreshWindowMS is the standard's baseline retention window.
	DefaultRefreshWindowMS() float64
	// Features selects the device behaviours this standard enables.
	Features() Features
}

// spec is the table-driven Standard implementation all registered standards
// share; the per-standard variation lives in the two function fields.
type spec struct {
	name        string
	cycleNs     float64
	ratioNum    int
	ratioDen    int
	channels    int
	refresh     string
	refWindowMS float64
	features    Features
	geometry    func(copyRows int) Geometry
	timing      func(d Density, refWindowMS float64, g Geometry) Timing
}

func (s *spec) Name() string                    { return s.name }
func (s *spec) CycleNs() float64                { return s.cycleNs }
func (s *spec) ClockRatio() (int, int)          { return s.ratioNum, s.ratioDen }
func (s *spec) Channels() int                   { return s.channels }
func (s *spec) Geometry(copyRows int) Geometry  { return s.geometry(copyRows) }
func (s *spec) DefaultRefresh() string          { return s.refresh }
func (s *spec) DefaultRefreshWindowMS() float64 { return s.refWindowMS }
func (s *spec) Features() Features              { return s.features }

func (s *spec) Timing(d Density, refWindowMS float64, g Geometry) Timing {
	return s.timing(d, refWindowMS, g)
}

var standards = map[string]Standard{}

// RegisterStandard adds a standard to the registry; it panics on a duplicate
// name so a wiring mistake fails at init.
func RegisterStandard(s Standard) {
	if _, dup := standards[s.Name()]; dup {
		panic(fmt.Sprintf("dram: standard %q registered twice", s.Name()))
	}
	standards[s.Name()] = s
}

// StandardByName looks a standard up; the error lists the registered names.
func StandardByName(name string) (Standard, error) {
	if s, ok := standards[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("dram: unknown standard %q (registered: %s)", name, strings.Join(StandardNames(), ", "))
}

// StandardNames returns the registered standard names, sorted.
func StandardNames() []string {
	names := make([]string, 0, len(standards))
	for n := range standards {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// toCyclesIn rounds a nanosecond parameter to command-clock cycles of the
// given cycle time.
func toCyclesIn(ns, cycleNs float64) int { return int(ns/cycleNs + 0.5) }

// refsPerWindow is the number of refresh commands per retention window every
// supported standard schedules (JEDEC's 8192 for DDR-class devices).
const refsPerWindow = 8192

// DDR5 cycle time: DDR5-4800, a 2400 MHz command clock.
const ddr5CycleNs = 1e9 / 2400e6

// DDR5 returns the timing table for a DDR5-4800 chip. Core timings follow
// the JEDEC DDR5-4800B speed bin (tRCD/tRP ~15.8 ns, tRAS 32 ns, tWR 30 ns);
// tRFC reuses the density extrapolation table shared with LPDDR4 (documented
// as an estimate in DESIGN.md), and the same-bank refresh time tRFCsb is
// modelled as half of tRFC, carried in the RFCpb slot that the per-bank
// refresh machinery consumes.
func DDR5(d Density, refWindowMS float64, g Geometry) Timing {
	window := int64(refWindowMS * 1e6 / ddr5CycleNs)
	return Timing{
		RCD:        38,
		RAS:        77,
		RP:         38,
		WR:         72,
		RTP:        18,
		WTR:        24,
		CCD:        8,
		RRD:        12,
		FAW:        32,
		CL:         40,
		CWL:        38,
		BL:         8,
		RFC:        toCyclesIn(d.RFCNanos(), ddr5CycleNs),
		RFCpb:      toCyclesIn(d.RFCNanos()/2, ddr5CycleNs),
		REFI:       int(window / refsPerWindow),
		RefWindow:  window,
		RowsPerRef: g.RowsPerBank / refsPerWindow,
		CycleNs:    ddr5CycleNs,
	}
}

// DDR4 cycle time: DDR4-3200, a 1600 MHz command clock.
const ddr4CycleNs = 1e9 / 1600e6

// DDR4 returns the timing table for a DDR4-3200 chip, following the JEDEC
// DDR4-3200AA speed bin (tRCD/tRP 13.75 ns, tRAS 32 ns, tWR 15 ns,
// tFAW 25 ns for x8 parts). tRFC reuses the density extrapolation table
// shared with LPDDR4 (documented as an estimate in DESIGN.md).
func DDR4(d Density, refWindowMS float64, g Geometry) Timing {
	window := int64(refWindowMS * 1e6 / ddr4CycleNs)
	return Timing{
		RCD:        22,
		RAS:        52,
		RP:         22,
		WR:         24,
		RTP:        12,
		WTR:        12,
		CCD:        8,
		RRD:        8,
		FAW:        40,
		CL:         22,
		CWL:        16,
		BL:         8,
		RFC:        toCyclesIn(d.RFCNanos(), ddr4CycleNs),
		RFCpb:      toCyclesIn(d.RFCNanos()/2, ddr4CycleNs),
		REFI:       int(window / refsPerWindow),
		RefWindow:  window,
		RowsPerRef: g.RowsPerBank / refsPerWindow,
		CycleNs:    ddr4CycleNs,
	}
}

// ddr4Geometry keeps the per-channel capacity of the LPDDR4 configuration
// (4 GiB of regular rows) in DDR4's 16-bank, 8 KiB-row organization.
func ddr4Geometry(copyRows int) Geometry {
	return Geometry{
		Ranks:           1,
		Banks:           16,
		RowsPerBank:     32 * 1024,
		RowsPerSubarray: 512,
		CopyRows:        copyRows,
		RowBytes:        8 * 1024,
		LineBytes:       64,
	}
}

// HBM2 cycle time: a 1000 MHz command clock (2 Gb/s/pin).
const hbm2CycleNs = 1.0

// HBM2 returns the timing table for an HBM2 stack channel. With a 1 ns
// cycle the table is nearly the nanosecond spec itself: tRCD/tRP 14 ns,
// tRAS 34 ns, tFAW 16 ns. A 64-byte line on a 64-bit pseudo-channel bus is
// a 4-cycle burst. tRFC reuses the shared density extrapolation table.
func HBM2(d Density, refWindowMS float64, g Geometry) Timing {
	window := int64(refWindowMS * 1e6 / hbm2CycleNs)
	return Timing{
		RCD:        14,
		RAS:        34,
		RP:         14,
		WR:         16,
		RTP:        7,
		WTR:        8,
		CCD:        4,
		RRD:        4,
		FAW:        16,
		CL:         14,
		CWL:        7,
		BL:         4,
		RFC:        toCyclesIn(d.RFCNanos(), hbm2CycleNs),
		RFCpb:      toCyclesIn(d.RFCNanos()/2, hbm2CycleNs),
		REFI:       int(window / refsPerWindow),
		RefWindow:  window,
		RowsPerRef: g.RowsPerBank / refsPerWindow,
		CycleNs:    hbm2CycleNs,
	}
}

// LPDDR5 cycle time: LPDDR5-6400, an 800 MHz command clock (CK). Data moves
// on the 4:1 WCK, but every timing parameter the controller schedules against
// is specified in CK cycles, so CK is the command clock the simulator ticks.
const lpddr5CycleNs = 1e9 / 800e6

// LPDDR5 returns the timing table for an LPDDR5-6400 chip. Core timings
// follow the JEDEC LPDDR5 nanosecond spec (tRCD 18 ns, tRAS 42 ns, tRPpb
// 18 ns, tWR 34 ns, tFAW 20 ns) rounded to the 1.25 ns CK; a 64-byte line is
// a 4-CK burst on the 4:1 WCK. tRFC reuses the density extrapolation table
// shared with LPDDR4 (documented as an estimate in DESIGN.md), with the
// per-bank tRFCpb as half of tRFCab as in LPDDR4.
func LPDDR5(d Density, refWindowMS float64, g Geometry) Timing {
	window := int64(refWindowMS * 1e6 / lpddr5CycleNs)
	return Timing{
		RCD:        15,
		RAS:        34,
		RP:         15,
		WR:         27,
		RTP:        6,
		WTR:        8,
		CCD:        4,
		RRD:        6,
		FAW:        16,
		CL:         15,
		CWL:        9,
		BL:         4,
		RFC:        toCyclesIn(d.RFCNanos(), lpddr5CycleNs),
		RFCpb:      toCyclesIn(d.RFCNanos()/2, lpddr5CycleNs),
		REFI:       int(window / refsPerWindow),
		RefWindow:  window,
		RowsPerRef: g.RowsPerBank / refsPerWindow,
		CycleNs:    lpddr5CycleNs,
	}
}

// lpddr5Geometry keeps the per-channel capacity of the LPDDR4 configuration
// (4 GiB of regular rows) in LPDDR5's 16-bank organization.
func lpddr5Geometry(copyRows int) Geometry {
	return Geometry{
		Ranks:           1,
		Banks:           16,
		RowsPerBank:     32 * 1024,
		RowsPerSubarray: 512,
		CopyRows:        copyRows,
		RowBytes:        8 * 1024,
		LineBytes:       64,
	}
}

// ddr5Geometry keeps the per-channel capacity of the LPDDR4 configuration
// (4 GiB of regular rows) while moving to DDR5's 32-bank organization.
func ddr5Geometry(copyRows int) Geometry {
	return Geometry{
		Ranks:           1,
		Banks:           32,
		RowsPerBank:     16 * 1024,
		RowsPerSubarray: 512,
		CopyRows:        copyRows,
		RowBytes:        8 * 1024,
		LineBytes:       64,
	}
}

// hbm2Geometry models one HBM2 channel as two pseudo-channels (the rank
// dimension) of 16 banks with 2 KiB rows; eight such channels make a stack.
func hbm2Geometry(copyRows int) Geometry {
	return Geometry{
		Ranks:           2,
		Banks:           16,
		RowsPerBank:     16 * 1024,
		RowsPerSubarray: 512,
		CopyRows:        copyRows,
		RowBytes:        2 * 1024,
		LineBytes:       64,
	}
}

func init() {
	RegisterStandard(&spec{
		name:        "lpddr4",
		cycleNs:     Cycle,
		ratioNum:    2, // 1600 MHz command clock vs 4 GHz cores
		ratioDen:    5,
		channels:    4,
		refresh:     "allbank",
		refWindowMS: 64,
		geometry:    Std,
		timing:      LPDDR4,
	})
	RegisterStandard(&spec{
		name:        "lpddr5",
		cycleNs:     lpddr5CycleNs,
		ratioNum:    1, // 800 MHz command clock vs 4 GHz cores
		ratioDen:    5,
		channels:    4,
		refresh:     "perbank",
		refWindowMS: 32,
		geometry:    lpddr5Geometry,
		timing:      LPDDR5,
	})
	RegisterStandard(&spec{
		name:        "ddr4",
		cycleNs:     ddr4CycleNs,
		ratioNum:    2, // 1600 MHz command clock vs 4 GHz cores
		ratioDen:    5,
		channels:    4,
		refresh:     "allbank",
		refWindowMS: 64,
		geometry:    ddr4Geometry,
		timing:      DDR4,
	})
	RegisterStandard(&spec{
		name:        "ddr5",
		cycleNs:     ddr5CycleNs,
		ratioNum:    3, // 2400 MHz command clock vs 4 GHz cores
		ratioDen:    5,
		channels:    4,
		refresh:     "samebank",
		refWindowMS: 32,
		geometry:    ddr5Geometry,
		timing:      DDR5,
	})
	RegisterStandard(&spec{
		name:        "hbm2",
		cycleNs:     hbm2CycleNs,
		ratioNum:    1, // 1000 MHz command clock vs 4 GHz cores
		ratioDen:    4,
		channels:    8,
		refresh:     "perbank",
		refWindowMS: 32,
		features:    Features{PerRankDataBus: true},
		geometry:    hbm2Geometry,
		timing:      HBM2,
	})
}
