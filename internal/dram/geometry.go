// Package dram implements a cycle-accurate model of an LPDDR4-style DRAM
// channel, extended with the CROW substrate's multiple-row-activation (MRA)
// commands (ACT-c and ACT-t) and with SALP-MASA-style subarray-level
// parallelism for the baseline comparisons.
//
// The device is a passive state machine: a memory controller asks when each
// command becomes legal with the Ready* methods and advances state with the
// corresponding issue methods. All times are in DRAM command-clock cycles (1600 MHz for
// LPDDR4-3200, i.e. 0.625 ns per cycle).
package dram

// Geometry describes the physical organization of one DRAM channel.
//
// The default values follow Table 2 of the CROW paper: 1 rank, 8 banks,
// 64 K rows per bank, 512 regular rows per subarray (so 128 subarrays per
// bank), and an 8 KiB row buffer. Copy rows are the extra CROW rows added to
// each subarray; they are addressed separately from regular rows and do not
// count toward RowsPerBank.
type Geometry struct {
	Ranks           int // ranks per channel
	Banks           int // banks per rank
	RowsPerBank     int // regular rows per bank
	RowsPerSubarray int // regular rows per subarray
	CopyRows        int // CROW copy rows per subarray (0 = conventional DRAM)
	RowBytes        int // row buffer size in bytes
	LineBytes       int // cache line (column access) size in bytes
}

// Std returns the CROW paper's simulated geometry (Table 2, the lpddr4
// standard's) with the given number of copy rows per subarray.
func Std(copyRows int) Geometry { return lpddr4.Geometry(copyRows) }

// SubarraysPerBank returns the number of subarrays in each bank.
func (g Geometry) SubarraysPerBank() int { return g.RowsPerBank / g.RowsPerSubarray }

// ColumnsPerRow returns the number of cache-line-sized columns in a row.
func (g Geometry) ColumnsPerRow() int { return g.RowBytes / g.LineBytes }

// ChannelBytes returns the regular-row storage capacity of one channel.
func (g Geometry) ChannelBytes() int64 {
	return int64(g.Ranks) * int64(g.Banks) * int64(g.RowsPerBank) * int64(g.RowBytes)
}

// Subarray returns the subarray index that contains the given regular row.
func (g Geometry) Subarray(row int) int { return row / g.RowsPerSubarray }

// RowInSubarray returns the index of the given regular row within its
// subarray (0 .. RowsPerSubarray-1).
func (g Geometry) RowInSubarray(row int) int { return row % g.RowsPerSubarray }

// Addr identifies one cache-line-sized location in a multi-channel DRAM
// system, after address decoding.
type Addr struct {
	Channel int
	Rank    int
	Bank    int
	Row     int // regular row index within the bank
	Col     int // cache-line column index within the row
}

// Subarray returns the subarray index of the address within its bank.
func (a Addr) Subarray(g Geometry) int { return g.Subarray(a.Row) }

func log2(v int) uint {
	var b uint
	for 1<<b < v {
		b++
	}
	if 1<<b != v {
		panic("dram: dimension is not a power of two")
	}
	return b
}
