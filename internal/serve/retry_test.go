package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/salus-sim/salus/internal/securemem"
)

// The retry-budget satellite contract, pinned end to end:
//
//   - N transient faults against an idempotent read: at most the budget
//     in retries, then a typed give-up (ErrRetryBudget wrapping the
//     engine cause).
//   - An ambiguous write failure: zero retries, typed ErrAmbiguous, and
//     the write applied at most once.
//
// The engine is armed with a zero-retry policy (zeroEngineRetries), so
// the service layer's budget is the only retry loop in play.

// TestReadRetryBudgetExhaustion: persistent transient faults exhaust the
// read budget: exactly budget retries, then a typed give-up carrying
// both the service verdict and the engine cause.
func TestReadRetryBudgetExhaustion(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	n := 1 << 30 // effectively persistent
	eng.AttachFaults(faultFirstN{&n}, zeroEngineRetries(), nil)

	const budget = 3
	cfg := Config{}
	cfg.Classes[Interactive] = ClassConfig{Queue: 4, Retries: budget}
	srv := testServer(t, eng, cfg)

	err := srv.Do(&Request{Class: Interactive, Addr: 0, Buf: make([]byte, 8)})
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("persistent-fault read: %v, want ErrRetryBudget", err)
	}
	if !errors.Is(err, securemem.ErrTransient) {
		t.Fatalf("give-up error lost the engine cause: %v", err)
	}
	rep := srv.Snapshot()
	o := rep.Ops[Interactive]
	if o.Retries != budget {
		t.Fatalf("retries = %d, want exactly the budget %d", o.Retries, budget)
	}
	if o.Refused != 1 || o.Served != 0 {
		t.Fatalf("counters after give-up: %+v", o)
	}
}

// TestReadRetriesWithinBudget: a transient burst shorter than the budget
// is survived — the read succeeds after exactly that many retries.
func TestReadRetriesWithinBudget(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	n := 2
	eng.AttachFaults(faultFirstN{&n}, zeroEngineRetries(), nil)

	cfg := Config{}
	cfg.Classes[Interactive] = ClassConfig{Queue: 4, Retries: 4}
	srv := testServer(t, eng, cfg)

	if err := srv.Do(&Request{Class: Interactive, Addr: 0, Buf: make([]byte, 8)}); err != nil {
		t.Fatalf("read with burst 2 under budget 4: %v", err)
	}
	rep := srv.Snapshot()
	o := rep.Ops[Interactive]
	if o.Served != 1 || o.Retries != 2 {
		t.Fatalf("counters: %+v, want served=1 retries=2", o)
	}
}

// TestAmbiguousWriteNotRetried: a write failing after it reached the
// engine is never retried — zero service retries, typed ErrAmbiguous —
// and the data lands at most once: a post-fault readback shows every
// byte as either the old or the new value.
func TestAmbiguousWriteNotRetried(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	n := 1
	eng.AttachFaults(faultFirstN{&n}, zeroEngineRetries(), nil)

	cfg := Config{}
	cfg.Classes[Interactive] = ClassConfig{Queue: 4, Retries: 8} // budget must not apply to writes
	srv := testServer(t, eng, cfg)

	newVal := byte(0xAB)
	data := []byte{newVal, newVal, newVal, newVal}
	var cbErr error
	err := srv.Do(&Request{
		Class: Interactive, Addr: 64, Write: true, Data: data,
		OnDone: func(e error) { cbErr = e },
	})
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("faulted write: %v, want ErrAmbiguous", err)
	}
	if !errors.Is(err, securemem.ErrTransient) {
		t.Fatalf("ambiguous error lost the engine cause: %v", err)
	}
	if !errors.Is(cbErr, ErrAmbiguous) {
		t.Fatalf("OnDone got %v, want the ambiguous outcome", cbErr)
	}
	rep := srv.Snapshot()
	o := rep.Ops[Interactive]
	if o.Retries != 0 {
		t.Fatalf("ambiguous write was retried %d times", o.Retries)
	}
	if o.Ambiguous != 1 || o.Refused != 1 {
		t.Fatalf("counters: %+v, want ambiguous=1 refused=1", o)
	}

	// Oracle check: with faults spent, read the bytes back. Each must be
	// the old value (0, fresh region) or the new one — the write applied
	// at most once, never a torn or doubled variant.
	buf := make([]byte, len(data))
	if err := srv.Do(&Request{Class: Interactive, Addr: 64, Buf: buf}); err != nil {
		t.Fatalf("readback: %v", err)
	}
	for i, b := range buf {
		if b != 0 && b != newVal {
			t.Fatalf("byte %d after ambiguous write: %#02x, want 0x00 or %#02x", i, b, newVal)
		}
	}
}

// TestClientAmbiguityTracking drives the Client's candidate-set oracle
// directly: ambiguous writes taint bytes, verified reads resolve them,
// and impossible observations surface as violations.
func TestClientAmbiguityTracking(t *testing.T) {
	c, err := NewClient(ClientConfig{ID: 1, Class: Interactive, Base: 0, Len: 8, Ops: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	amb := fmt.Errorf("%w: injected", ErrAmbiguous)

	c.onWrite(0, []byte{5, 5}, amb)
	c.onWrite(1, []byte{7}, amb) // second unresolved write overlapping byte 1
	if got := c.Oracle().Ambiguities(); got != 2 {
		t.Fatalf("tainted bytes = %d, want 2", got)
	}
	// Byte 1 may now be 0 (neither applied), 5 (first applied), or 7.
	c.onRead(1, []byte{5}, nil)
	if c.Oracle().Ambiguities() != 1 {
		t.Fatalf("read did not resolve byte 1: %d tainted", c.Oracle().Ambiguities())
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("legitimate candidate flagged: %v", c.Violations())
	}
	// Byte 0 can be 0 or 5 — observing 9 is a divergence.
	c.onRead(0, []byte{9}, nil)
	if len(c.Violations()) != 1 {
		t.Fatalf("impossible byte not flagged: %v", c.Violations())
	}
	// A successful write clears ambiguity outright.
	c.onWrite(0, []byte{3}, nil)
	if c.Oracle().Ambiguities() != 0 {
		t.Fatalf("successful write left %d tainted bytes", c.Oracle().Ambiguities())
	}
	// Clean-byte divergence is flagged too.
	c.onRead(0, []byte{4}, nil)
	if len(c.Violations()) != 2 {
		t.Fatalf("clean divergence not flagged: %v", c.Violations())
	}
	// Failed reads carry no bytes and must not disturb the oracle.
	before := c.Oracle().Ambiguities()
	c.onRead(0, []byte{0xFF}, ErrDeadline)
	if c.Oracle().Ambiguities() != before || len(c.Violations()) != 2 {
		t.Fatal("failed read disturbed the oracle")
	}
}

// TestClientReportsEveryDivergence: a read and the final sweep flag each
// divergent byte, clean or ambiguous, not only the first.
func TestClientReportsEveryDivergence(t *testing.T) {
	c, err := NewClient(ClientConfig{ID: 1, Class: Interactive, Base: 0, Len: 8, Ops: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.onWrite(2, []byte{5}, fmt.Errorf("%w: injected", ErrAmbiguous))
	c.onRead(0, []byte{0, 1, 9, 0, 2}, nil) // +1 and +4 clean, +2 ambiguous
	if got := len(c.Violations()); got != 3 {
		t.Fatalf("read flagged %d divergent bytes, want 3: %v", got, c.Violations())
	}
	engine := []byte{7, 0, 0, 0, 0, 0, 0, 7}
	v := c.VerifyFinal(func(_ securemem.HomeAddr, buf []byte) error { copy(buf, engine); return nil })
	if len(v) != 2 || !strings.Contains(v[0], "byte +0") || !strings.Contains(v[1], "byte +7") {
		t.Fatalf("final sweep = %q, want divergences at +0 and +7", v)
	}
}
