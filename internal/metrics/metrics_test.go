package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWeightedSpeedup(t *testing.T) {
	// Each app at its alone IPC => WS = number of cores.
	ws := WeightedSpeedup([]float64{1, 2, 0.5}, []float64{1, 2, 0.5})
	if ws != 3 {
		t.Errorf("WS = %f, want 3", ws)
	}
	ws = WeightedSpeedup([]float64{0.5, 1}, []float64{1, 2})
	if ws != 1 {
		t.Errorf("WS = %f, want 1", ws)
	}
}

func TestWeightedSpeedupPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched vectors must panic")
		}
	}()
	WeightedSpeedup([]float64{1}, []float64{1, 2})
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(1.2, 1.0); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Speedup = %f, want 0.2", got)
	}
	if Speedup(1, 0) != 0 {
		t.Error("zero baseline yields 0")
	}
}

func TestMeanMinMax(t *testing.T) {
	vals := []float64{3, 1, 2}
	if Mean(vals) != 2 {
		t.Error("mean broken")
	}
	min, max := MinMax(vals)
	if min != 1 || max != 3 {
		t.Error("minmax broken")
	}
}

// TestWSMonotonic: improving any core's shared IPC never lowers WS.
func TestWSMonotonic(t *testing.T) {
	f := func(a, b, c uint8) bool {
		shared := []float64{float64(a%100) + 1, float64(b%100) + 1}
		alone := []float64{float64(c%100) + 1, 50}
		ws1 := WeightedSpeedup(shared, alone)
		shared[0] += 1
		ws2 := WeightedSpeedup(shared, alone)
		return ws2 > ws1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
