package sim

// Pool recycles records of one type so a steady-state simulation
// allocates none. It grows on demand and never shrinks. The zero value is
// ready to use.
type Pool[T any] struct {
	free []*T
}

// Get returns a zeroed record, reusing a released one when available.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return new(T)
}

// Put zeroes r and keeps it for reuse. The caller must hold no other
// reference to it.
func (p *Pool[T]) Put(r *T) {
	var zero T
	*r = zero
	p.free = append(p.free, r)
}

// Queue is a FIFO that reuses its storage: once it has grown to its
// working depth, Push and Pop allocate nothing. The zero value is an
// empty queue.
type Queue[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Slide the live items to the front instead of growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the head. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}
