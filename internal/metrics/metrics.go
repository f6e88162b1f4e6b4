// Package metrics implements the evaluation metrics of Section 7: IPC for
// single-core runs and weighted speedup [104] for multi-programmed
// workloads, plus MPKI-based memory-intensity classification.
package metrics

// WeightedSpeedup returns Σ IPC_shared[i] / IPC_alone[i] (Snavely &
// Tullsen [104]): the job-throughput metric used for all multi-core
// figures. IPC_alone is measured on the baseline system with the
// application running alone.
func WeightedSpeedup(shared, alone []float64) float64 {
	if len(shared) != len(alone) {
		panic("metrics: mismatched IPC vectors")
	}
	ws := 0.0
	for i := range shared {
		if alone[i] > 0 {
			ws += shared[i] / alone[i]
		}
	}
	return ws
}

// Speedup returns the relative performance of a configuration versus a
// baseline (e.g. WS_mech / WS_base, or IPC_mech / IPC_base), as the
// fractional improvement the paper reports (0.071 = 7.1 %).
func Speedup(mech, base float64) float64 {
	if base == 0 {
		return 0
	}
	return mech/base - 1
}

// Mean returns the arithmetic mean.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// MinMax returns the smallest and largest values.
func MinMax(vals []float64) (min, max float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	min, max = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
