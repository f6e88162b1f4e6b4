// Package retention models DRAM data-retention behaviour: the statistics of
// weak cells (Section 4.2.1, Equations 1 and 2) and fixed weak-row profiles
// (the paper's three weak rows per subarray, Section 8.2).
package retention

import (
	"math"
	"math/rand"
	"slices"
)

// DefaultBER is the bit error rate the paper calculates for a 256 ms refresh
// interval from Liu et al.'s measurement of ~1000 weak cells in a 32 GiB
// module (Section 4.2.1).
const DefaultBER = 4e-9

// PWeakRow returns the probability that a row of cellsPerRow cells contains
// at least one weak cell (Equation 1):
//
//	P = 1 − (1 − BER)^cells
func PWeakRow(ber float64, cellsPerRow int) float64 {
	// Use log1p/expm1 for numerical stability with tiny BERs.
	return -math.Expm1(float64(cellsPerRow) * math.Log1p(-ber))
}

// PSubarrayMoreThan returns the probability that a subarray of `rows` rows
// contains more than n weak rows (Equation 2):
//
//	P = 1 − Σ_{k=0..n} C(rows,k) p^k (1−p)^(rows−k)
func PSubarrayMoreThan(n, rows int, pRow float64) float64 {
	sum := 0.0
	logP := math.Log(pRow)
	logQ := math.Log1p(-pRow)
	logC := 0.0 // log C(rows, 0)
	for k := 0; k <= n; k++ {
		if k > 0 {
			logC += math.Log(float64(rows-k+1)) - math.Log(float64(k))
		}
		sum += math.Exp(logC + float64(k)*logP + float64(rows-k)*logQ)
	}
	if sum > 1 {
		sum = 1
	}
	return 1 - sum
}

// PAnySubarrayMoreThan returns the probability that at least one of
// numSubarrays subarrays has more than n weak rows.
func PAnySubarrayMoreThan(n, rows int, pRow float64, numSubarrays int) float64 {
	p := PSubarrayMoreThan(n, rows, pRow)
	return -math.Expm1(float64(numSubarrays) * math.Log1p(-p))
}

// Profile records the weak rows of every subarray in a DRAM system: Weak[i]
// holds the weak regular-row indices, within the subarray, of global subarray
// i = ((channel*Ranks+rank)*Banks+bank)*Subarrays + subarray.
type Profile struct {
	Weak [][]int
}

// Geometry mirrors the fields of dram.Geometry that a profile needs,
// avoiding a dependency on the device package.
type Geometry struct {
	Channels, Ranks, Banks, Subarrays, RowsPerSubarray int
}

// FixedProfile marks n distinct random rows of every subarray weak. The
// paper's CROW-ref evaluation conservatively assumes three weak rows per
// subarray (Section 8.2), far more than the statistical expectation.
func FixedProfile(g Geometry, n int, seed int64) *Profile {
	rng := rand.New(rand.NewSource(seed))
	subs := g.Channels * g.Ranks * g.Banks * g.Subarrays
	rows := make([]int, subs*n) // every subarray's rows, back to back
	p := &Profile{Weak: make([][]int, subs)}
	for s := range p.Weak {
		weak := rows[s*n : s*n : (s+1)*n]
		for len(weak) < n {
			row := rng.Intn(g.RowsPerSubarray)
			if !slices.Contains(weak, row) {
				weak = append(weak, row)
			}
		}
		p.Weak[s] = weak
	}
	return p
}
