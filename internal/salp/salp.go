// Package salp configures the SALP-MASA baseline [53] of Section 8.1.4.
// SALP exposes subarray-level parallelism inside a bank: with MASA, every
// subarray keeps its own local row buffer open concurrently, turning the set
// of open local row buffers into an in-DRAM cache of one row per subarray.
//
// The device-side behaviour (multiple open subarrays per bank) is
// implemented by dram.Channel's MASA mode and the controller's per-subarray
// hit detection; this package supplies the configuration surface: the
// subarrays-per-bank geometry transform and the area model.
package salp

import (
	"crowdram/internal/circuit"
	"crowdram/internal/dram"
)

// Config selects a SALP design point.
type Config struct {
	// SubarraysPerBank reshapes the bank: the baseline has 128; SALP-256
	// and SALP-512 halve/quarter the rows per subarray to add sense-
	// amplifier stripes (and area) in exchange for more cached rows.
	SubarraysPerBank int
}

// Geometry reshapes the Table 2 geometry for this subarray count. DRAM
// capacity is constant; only the subarray boundaries move.
func (c Config) Geometry() dram.Geometry {
	g := dram.Std(0)
	if g.RowsPerBank%c.SubarraysPerBank != 0 {
		panic("salp: subarrays must divide rows per bank")
	}
	g.RowsPerSubarray = g.RowsPerBank / c.SubarraysPerBank
	return g
}

// ChipAreaOverhead returns the DRAM die overhead versus the baseline
// (Figure 11b: 0.6 % at 128 subarrays, 28.9 % at 256, 84.5 % at 512).
func (c Config) ChipAreaOverhead() float64 {
	return circuit.SALPChipOverhead(c.SubarraysPerBank)
}
