// Package memreq defines the record that carries one simulated memory
// request through the timing simulator's pipeline: GPU lane, interconnect,
// page cache, L2 slice and security engine.
//
// A request is a sim.Handler with a small stack of continuations. A stage
// pushes the method it wants to run next (a method value bound once when
// the stage was built), then hands the request on or schedules it; firing
// the request pops and runs the top continuation. Requests come from a
// sim.Pool, so the steady state allocates nothing per request.
package memreq

import (
	"github.com/salus-sim/salus/internal/securemem"
)

// Cont is a pipeline stage's continuation for a request.
type Cont func(r *Request)

// maxDepth bounds the continuations outstanding on one request; the
// deepest path (lane, L2 path, interconnect crossing and resolve, mapping
// miss, chunk fill) pushes five.
const maxDepth = 8

// Request is one memory access in flight.
type Request struct {
	Home  securemem.HomeAddr // the access's home (CXL) address
	Dev   securemem.DevAddr  // the device address, once the page cache resolved it
	Write bool
	GPC   int // issuing GPC, which selects the interconnect port

	// Frame is the page-cache frame the request is bound to while it
	// waits for a fill.
	Frame int

	next  *Request // Queue link
	depth int
	stack [maxDepth]Cont
}

// Push adds c as the next continuation to run when r fires.
func (r *Request) Push(c Cont) {
	r.stack[r.depth] = c
	r.depth++
}

// Fire pops the top continuation and runs it: the request has arrived
// at the stage that pushed it.
func (r *Request) Fire() {
	r.depth--
	c := r.stack[r.depth]
	r.stack[r.depth] = nil
	c(r)
}

// Queue is a FIFO of requests linked through the requests themselves, so
// queueing allocates nothing. A request is in at most one queue at a time.
// The zero value is an empty queue; copying a queue and resetting the
// original detaches its whole contents.
type Queue struct {
	head, tail *Request
}

// Empty reports whether the queue holds no request.
func (q *Queue) Empty() bool { return q.head == nil }

// Push appends r at the tail.
func (q *Queue) Push(r *Request) {
	r.next = nil
	if q.tail == nil {
		q.head = r
	} else {
		q.tail.next = r
	}
	q.tail = r
}

// Pop removes and returns the head, or nil when the queue is empty.
func (q *Queue) Pop() *Request {
	r := q.head
	if r == nil {
		return nil
	}
	q.head = r.next
	if q.head == nil {
		q.tail = nil
	}
	r.next = nil
	return r
}
