package obs

// Ring keeps the newest limit values pushed into it and counts the rest, so
// a reader can say how much it no longer holds: a truncated export is never
// mistaken for a complete one. The i-th value pushed has sequence number i,
// held or not. It is the tree's one overwrite-oldest buffer, under the
// simulator's Tracer and under a served job's event log. Not goroutine-safe:
// both owners already serialize access (one simulation loop, one job mutex).
type Ring[T any] struct {
	buf   []T
	limit int
	next  int   // once full: the write index, which is also the oldest value
	total int64 // values ever pushed
}

// NewRing returns an empty ring retaining at most limit (> 0) values.
func NewRing[T any](limit int) Ring[T] {
	if limit <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return Ring[T]{limit: limit}
}

// Reserve allocates the whole capacity now, so that no later Push allocates;
// without it storage grows with the contents, up to the limit.
func (r *Ring[T]) Reserve() { r.buf = append(make([]T, 0, r.limit), r.buf...) }

// Push records one value, overwriting the oldest once limit are held (judged
// on len: growth by append can leave cap above the limit). The write index
// wraps by comparison; total % limit is a 64-bit divide per traced event.
func (r *Ring[T]) Push(v T) {
	r.total++
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Len returns the number of values currently held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns the number of values ever pushed: the next sequence number.
func (r *Ring[T]) Total() int64 { return r.total }

// Dropped returns how many values were overwritten: the oldest held one's
// sequence number.
func (r *Ring[T]) Dropped() int64 { return r.total - int64(len(r.buf)) }

// Each calls fn for every retained value, oldest first.
func (r *Ring[T]) Each(fn func(T)) {
	for _, v := range r.buf[r.next:] {
		fn(v)
	}
	for _, v := range r.buf[:r.next] {
		fn(v)
	}
}

// Since returns a copy of the retained values whose sequence number is at
// least from, oldest first (nil when there are none).
func (r *Ring[T]) Since(from int64) []T {
	skip := int(max(from-r.Dropped(), 0))
	if skip >= len(r.buf) {
		return nil
	}
	out := make([]T, 0, len(r.buf)-skip)
	older, newer := r.buf[r.next:], r.buf[:r.next]
	if skip < len(older) {
		return append(append(out, older[skip:]...), newer...)
	}
	return append(out, newer[skip-len(older):]...)
}
