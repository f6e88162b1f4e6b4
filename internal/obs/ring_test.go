package obs

import (
	"slices"
	"testing"
)

// TestRingModel holds Ring to a plain slice of everything ever pushed, after
// every push: what it holds is the model's tail, in order; the counts add up;
// Since(from) is the model from max(from, dropped) on, for every from. A lazy
// ring's storage follows its contents until it is full (a job that logs five
// events must not pay for 8 192); a reserved one has it all from the start
// (the Tracer must not allocate while it records).
func TestRingModel(t *testing.T) {
	for _, limit := range []int{1, 2, 7} {
		for _, reserve := range []bool{false, true} {
			r := NewRing[int](limit)
			if r.buf != nil {
				t.Fatalf("limit %d: a fresh ring allocated before its first Push", limit)
			}
			if reserve {
				r.Reserve()
			}
			var model []int
			for v := 0; v < 3*limit+2; v++ {
				r.Push(v)
				model = append(model, v)
				held := min(len(model), limit)
				dropped := len(model) - held
				if reserve && cap(r.buf) != limit || !reserve && held < limit && cap(r.buf) > 2*held {
					t.Fatalf("limit %d reserve %v: %d slots for %d values", limit, reserve, cap(r.buf), held)
				}
				if r.Len() != held || r.Total() != int64(len(model)) || r.Dropped() != int64(dropped) {
					t.Fatalf("limit %d after %d pushes: Len/Total/Dropped = %d/%d/%d, want %d/%d/%d",
						limit, len(model), r.Len(), r.Total(), r.Dropped(), held, len(model), dropped)
				}
				var each []int
				r.Each(func(v int) { each = append(each, v) })
				if !slices.Equal(each, model[dropped:]) {
					t.Fatalf("limit %d after %d pushes: Each = %v, want %v", limit, len(model), each, model[dropped:])
				}
				for from := 0; from <= len(model)+1; from++ {
					want := model[min(max(from, dropped), len(model)):]
					if got := r.Since(int64(from)); !slices.Equal(got, want) {
						t.Fatalf("limit %d after %d pushes: Since(%d) = %v, want %v", limit, len(model), from, got, want)
					}
				}
			}
		}
	}
}
