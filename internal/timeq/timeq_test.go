package timeq

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ref is the container/heap queue Queue must pop exactly like.
type ref []Item[int]

func (r ref) Len() int           { return len(r) }
func (r ref) Less(i, j int) bool { return r[i].At < r[j].At }
func (r ref) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r *ref) Push(x any)        { *r = append(*r, x.(Item[int])) }
func (r *ref) Pop() any {
	old := *r
	it := old[len(old)-1]
	*r = old[:len(old)-1]
	return it
}

// TestPopOrderIsContainerHeaps: random pushes and pops over a handful of due
// cycles, so most items tie with others, pop the same values in the same order
// as container/heap's. Values are unique, so a tie broken differently shows.
func TestPopOrderIsContainerHeaps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var r ref
		next := 0
		for op := 0; op < 5000; op++ {
			if len(q) != r.Len() {
				t.Fatalf("seed %d op %d: length %d, container/heap %d", seed, op, len(q), r.Len())
			}
			if len(q) == 0 || rng.Intn(3) > 0 {
				at := int64(rng.Intn(6))
				q.Push(at, next)
				heap.Push(&r, Item[int]{at, next})
				next++
				continue
			}
			want := heap.Pop(&r).(Item[int])
			if q[0].At != want.At {
				t.Fatalf("seed %d op %d: head due %d, container/heap %d", seed, op, q[0].At, want.At)
			}
			if got := q.Pop(); got != want.V {
				t.Fatalf("seed %d op %d: popped %d, container/heap %d (due %d)", seed, op, got, want.V, want.At)
			}
		}
	}
}

// TestSteadyStateAllocatesNothing: once the queue has grown to its working
// size, a push and a pop allocate nothing, for a pointer value and a func.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	type req struct{ n int }
	var q Queue[*req]
	r := &req{}
	for i := range 64 {
		q.Push(int64(i%7), r)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(3, r)
		q.Pop()
	}); n != 0 {
		t.Errorf("push+pop of a pointer allocates %v times, want 0", n)
	}
	var f Queue[func(int64)]
	done := func(int64) {}
	for i := range 64 {
		f.Push(int64(i%7), done)
	}
	if n := testing.AllocsPerRun(1000, func() {
		f.Push(3, done)
		f.Pop()
	}); n != 0 {
		t.Errorf("push+pop of a func allocates %v times, want 0", n)
	}
}

// TestPopReleasesValues: a popped slot keeps no reference, so a queue that
// once held many requests or callbacks does not keep them alive.
func TestPopReleasesValues(t *testing.T) {
	var q Queue[*int]
	for i := range 32 {
		q.Push(int64(i%5), new(int))
	}
	for len(q) > 0 {
		q.Pop()
	}
	for i, it := range q[:cap(q)] {
		if it.V != nil {
			t.Errorf("slot %d still holds a popped value", i)
		}
	}
}
