package harness

import (
	"context"
	"fmt"
)

// Run measures one workload once. With trace false it reports every
// end-to-end metric from the real binaries; with trace true every per-layer
// metric from the traced run. seconds is the time budget of the measured
// section: repetitions and phases are sized to it, and a workload whose
// single repetition is longer (repro) runs that one repetition.
func (e *Env) Run(ctx context.Context, workload string, seed int64, seconds float64, trace bool) (Result, Info) {
	switch workload {
	case Repro, MemBound, CPUBound, Verified:
		if trace {
			return e.tracedSim(ctx, workload, seed, seconds)
		}
		return e.untracedSim(ctx, workload, seed, seconds)
	case ServeOpen:
		if trace {
			return e.tracedServe(ctx, seed, seconds)
		}
		return e.untracedServe(ctx, seed, seconds)
	}
	info := Info{Failures: []string{fmt.Sprintf("unknown workload %q", workload)}}
	return Result{Attempted: 1, Failed: 1, Metrics: map[string]Value{}}, info
}

// KnownWorkload reports whether name is one of the five.
func KnownWorkload(name string) bool {
	for _, w := range Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
