package service

import (
	"container/heap"
	"errors"
	"sync"
)

// Queue-admission errors. The HTTP layer maps them to 503 responses.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity — the service's backpressure signal.
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining rejects a submission after shutdown has begun.
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// jobQueue is a bounded priority FIFO: higher Spec.Priority pops first,
// submission order breaks ties. Push applies admission control; Pop blocks
// until an item or close-and-empty.
type jobQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    jobHeap
	capacity int
	closed   bool
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{capacity: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits a job or rejects it with ErrQueueFull / ErrDraining.
func (q *jobQueue) Push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if len(q.items) >= q.capacity {
		return ErrQueueFull
	}
	heap.Push(&q.items, j)
	q.cond.Signal()
	return nil
}

// Pop returns the next job by (priority, FIFO) order, blocking while the
// queue is open and empty. ok is false once the queue is closed and drained:
// the worker's signal to exit.
func (q *jobQueue) Pop() (j *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	return heap.Pop(&q.items).(*Job), true
}

// Remove takes a still-queued job out of the queue (DELETE of a queued
// job); it reports whether the job was found.
func (q *jobQueue) Remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.mu.Lock()
	i := j.heapIndex
	j.mu.Unlock()
	if i < 0 || i >= len(q.items) || q.items[i] != j {
		return false
	}
	heap.Remove(&q.items, i)
	return true
}

// Close starts the drain: no further Push succeeds, Pop drains what is
// already admitted, and blocked workers wake.
func (q *jobQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len returns the current queue depth.
func (q *jobQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// jobHeap orders by priority descending, then submission sequence
// ascending. It keeps each job's heapIndex current so Remove is O(log n).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }

func (h jobHeap) Less(a, b int) bool {
	if h[a].spec.Priority != h[b].spec.Priority {
		return h[a].spec.Priority > h[b].spec.Priority
	}
	return h[a].seq < h[b].seq
}

func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].setHeapIndex(a)
	h[b].setHeapIndex(b)
}

func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.setHeapIndex(len(*h))
	*h = append(*h, j)
}

func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	j.setHeapIndex(-1)
	return j
}

func (j *Job) setHeapIndex(i int) {
	j.mu.Lock()
	j.heapIndex = i
	j.mu.Unlock()
}
