package cache

import "sync"

// A simulation is short and a process runs hundreds of them, nearly all
// behind an LLC of the same size, so a finished run's line array (2 MiB for
// the Table 2 LLC) goes to the next run instead of to the garbage collector.
//
// The pool is process-wide and holds arrays of one length at a time, the
// length released last: a sweep over LLC sizes runs one size after another,
// and an array kept for a size no run uses any more (8.4 MB for a 32 MiB
// LLC) is live heap the collector doubles. maxSlabs only has to cover the
// runs that finish before the next one starts; a worker that finishes a run
// begins another at once, so arrays are in use far more than they wait here.
const maxSlabs = 4

var slabs struct {
	sync.Mutex
	free [][]line
}

// takeSlab returns n zeroed lines, a released array if one of that length
// waits.
func takeSlab(n int) []line {
	slabs.Lock()
	var s []line
	if last := len(slabs.free) - 1; last >= 0 && len(slabs.free[last]) == n {
		s = slabs.free[last]
		slabs.free[last] = nil
		slabs.free = slabs.free[:last]
	}
	slabs.Unlock()
	if s == nil {
		return make([]line, n)
	}
	clear(s)
	return s
}

// putSlab makes s available to takeSlab. The caller must not use it again.
func putSlab(s []line) {
	if len(s) == 0 {
		return
	}
	slabs.Lock()
	if len(slabs.free) > 0 && len(slabs.free[0]) != len(s) {
		clear(slabs.free)
		slabs.free = slabs.free[:0]
	}
	if len(slabs.free) < maxSlabs {
		slabs.free = append(slabs.free, s)
	}
	slabs.Unlock()
}
