// Package timeq is the simulator's one timed queue: values due at a cycle,
// popped earliest first. The controller keeps its read completions in one,
// the LLC its hit callbacks.
package timeq

// Item is one queued value and the cycle it is due.
type Item[T any] struct {
	At int64
	V  T
}

// Queue is a min-heap on At; Queue[0] is the earliest item. container/heap
// would box every pushed item into an interface, one allocation per push on
// the hot path. The sift directions replicate container/heap's strict-less
// comparisons exactly, so the pop order, ties included, is container/heap's.
type Queue[T any] []Item[T]

// Push queues v, due at cycle at.
func (q *Queue[T]) Push(at int64, v T) {
	h := append(*q, Item[T]{at, v})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].At <= h[i].At {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

// Pop removes the earliest item and returns its value. The queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	h := *q
	v := h[0].V
	n := len(h) - 1
	h[0] = h[n]
	h[n] = Item[T]{}
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].At < h[j].At {
			j = r
		}
		if h[i].At <= h[j].At {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return v
}
