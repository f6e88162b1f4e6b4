package retention

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPWeakRowPaperValue(t *testing.T) {
	// 8 KiB row = 65536 cells at BER 4e-9: P ≈ 2.62e-4.
	p := PWeakRow(DefaultBER, 64*1024)
	if math.Abs(p-2.62e-4)/2.62e-4 > 0.01 {
		t.Errorf("PWeakRow = %.4g, want ≈ 2.62e-4", p)
	}
}

// TestSubarrayProbabilitiesPaperValues checks Section 4.2.1's table: for a
// chip with 8 banks, 128 subarrays/bank, 512 rows/subarray and 8 KiB rows,
// the probability of ANY subarray having more than 1/2/4/8 weak rows is
// 0.99 / 3.1e-1 / 3.3e-4 / 3.3e-11.
func TestSubarrayProbabilitiesPaperValues(t *testing.T) {
	pRow := PWeakRow(DefaultBER, 64*1024)
	const subarrays = 8 * 128
	cases := []struct {
		n    int
		want float64
		rel  float64
	}{
		{1, 0.99, 0.02},
		{2, 3.1e-1, 0.10},
		{4, 3.3e-4, 0.15},
		{8, 3.3e-11, 0.35},
	}
	for _, c := range cases {
		got := PAnySubarrayMoreThan(c.n, 512, pRow, subarrays)
		if math.Abs(got-c.want)/c.want > c.rel {
			t.Errorf("P(any subarray > %d weak rows) = %.3g, want ≈ %.3g", c.n, got, c.want)
		}
	}
}

// TestPSubarrayMonotonic: allowing more weak rows can only decrease the
// overflow probability — property test.
func TestPSubarrayMonotonic(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw % 16)
		p := float64(pRaw+1) / 70000 // (0, ~0.94)
		a := PSubarrayMoreThan(n, 512, p)
		b := PSubarrayMoreThan(n+1, 512, p)
		return b <= a+1e-12 && a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func smallGeo() Geometry {
	return Geometry{Channels: 2, Ranks: 1, Banks: 4, Subarrays: 8, RowsPerSubarray: 64}
}

func TestFixedProfile(t *testing.T) {
	g := smallGeo()
	p := FixedProfile(g, 3, 1)
	// Every subarray holds exactly three weak rows, all distinct.
	subarrays := 0
	for _, ch := range p.Weak {
		for _, rk := range ch {
			for _, bk := range rk {
				for _, sa := range bk {
					subarrays++
					if len(sa) != 3 {
						t.Fatalf("subarray has %d weak rows, want 3", len(sa))
					}
					seen := map[int]bool{}
					for _, r := range sa {
						if seen[r] {
							t.Fatal("duplicate weak row in subarray")
						}
						seen[r] = true
					}
				}
			}
		}
	}
	if subarrays != 2*1*4*8 {
		t.Errorf("%d subarrays profiled, want %d", subarrays, 2*1*4*8)
	}
}
