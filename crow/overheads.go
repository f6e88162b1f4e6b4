package crow

import (
	"crowdram/internal/circuit"
	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/retention"
)

// Overheads reports the hardware cost of a CROW-n configuration
// (Section 6 of the paper).
type Overheads struct {
	CopyRows int
	// CROWTableKB is the per-channel CROW-table storage in decimal
	// kilobytes (Equations 3–4; 11.3 KB for CROW-8).
	CROWTableKB float64
	// CROWTableAccessNs is the table lookup latency (0.14 ns).
	CROWTableAccessNs float64
	// DecoderArea is the copy-row decoder area in µm² (9.6 for CROW-8).
	DecoderArea float64
	// DecoderOverhead is the relative row-decoder growth (4.8 %).
	DecoderOverhead float64
	// ChipArea is the whole-chip area overhead (0.48 %).
	ChipArea float64
	// Capacity is the DRAM storage reserved for copy rows (1.6 %).
	Capacity float64
	// MRAPowerFactor is the two-row activation power relative to a
	// single-row ACT (1.058).
	MRAPowerFactor float64
}

// OverheadsFor computes the Section 6 cost model for n copy rows per
// subarray under the Table 2 geometry.
func OverheadsFor(n int) Overheads {
	g := dram.Std(n)
	return Overheads{
		CopyRows:          n,
		CROWTableKB:       core.StorageKB(g, 1),
		CROWTableAccessNs: core.AccessTimeNs(g),
		DecoderArea:       circuit.CopyDecoderArea(n),
		DecoderOverhead:   circuit.DecoderOverhead(n),
		ChipArea:          circuit.ChipOverhead(n),
		Capacity:          circuit.CapacityOverhead(n, g.RowsPerSubarray),
		MRAPowerFactor:    circuit.MRAPowerFactor(2),
	}
}

// WeakRowProbabilities evaluates the paper's Equations 1 and 2: the
// probability that a row is weak at the given bit error rate, and that any
// subarray in the Table 2 chip exceeds n weak rows.
func WeakRowProbabilities(ber float64, maxCopyRows int) (pRow float64, pAny []float64) {
	g := dram.Std(0)
	cells := g.RowBytes * 8
	pRow = retention.PWeakRow(ber, cells)
	subarrays := g.Banks * g.SubarraysPerBank()
	for n := 1; n <= maxCopyRows; n++ {
		pAny = append(pAny, retention.PAnySubarrayMoreThan(n, g.RowsPerSubarray, pRow, subarrays))
	}
	return pRow, pAny
}
