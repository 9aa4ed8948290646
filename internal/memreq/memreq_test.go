package memreq

import "testing"

func TestContinuationsRunLastPushedFirst(t *testing.T) {
	var order []string
	r := &Request{}
	r.Push(func(r *Request) { order = append(order, "caller") })
	r.Push(func(r *Request) {
		order = append(order, "stage")
		r.Fire() // hand the request back to the caller
	})
	r.Fire()
	if len(order) != 2 || order[0] != "stage" || order[1] != "caller" {
		t.Fatalf("order = %v, want [stage caller]", order)
	}
	if r.depth != 0 {
		t.Errorf("depth = %d after both continuations ran, want 0", r.depth)
	}
}

func TestQueueFIFOAndDetach(t *testing.T) {
	var q Queue
	if !q.Empty() || q.Pop() != nil {
		t.Fatal("zero queue not empty")
	}
	a, b, c := &Request{GPC: 1}, &Request{GPC: 2}, &Request{GPC: 3}
	q.Push(a)
	q.Push(b)
	// Detach the contents; a request pushed afterwards joins the fresh
	// queue, not the detached one.
	old := q
	q = Queue{}
	q.Push(c)
	if got := old.Pop(); got != a {
		t.Fatalf("first pop = %v, want a", got)
	}
	if got := old.Pop(); got != b {
		t.Fatalf("second pop = %v, want b", got)
	}
	if old.Pop() != nil || !old.Empty() {
		t.Fatal("detached queue not drained")
	}
	if got := q.Pop(); got != c || !q.Empty() {
		t.Fatalf("fresh queue pop = %v, want c", got)
	}
	if got := testing.AllocsPerRun(100, func() { q.Push(a); q.Push(b); q.Pop(); q.Pop() }); got != 0 {
		t.Errorf("Push/Pop allocate %.1f times, want 0", got)
	}
}
