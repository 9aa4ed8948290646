package check

import (
	"errors"
	"strings"
	"testing"
)

// plainTarget is a trivially correct Target over a flat byte slice. It is
// the base both for fault-injection targets in tests and a sanity check
// that the replay engine itself is model-agnostic.
type plainTarget struct {
	data []byte
}

func (p *plainTarget) Name() string { return "plain" }

func (p *plainTarget) bounds(addr uint64, n int) error {
	size := uint64(len(p.data))
	if addr > size || uint64(n) > size-addr {
		return errors.New("plain: out of range")
	}
	return nil
}

func (p *plainTarget) Read(addr uint64, buf []byte) error {
	if err := p.bounds(addr, len(buf)); err != nil {
		return err
	}
	copy(buf, p.data[addr:])
	return nil
}

func (p *plainTarget) Write(addr uint64, data []byte) error {
	if err := p.bounds(addr, len(data)); err != nil {
		return err
	}
	copy(p.data[addr:], data)
	return nil
}

func (p *plainTarget) ReadThrough(addr uint64, buf []byte) error   { return p.Read(addr, buf) }
func (p *plainTarget) WriteThrough(addr uint64, data []byte) error { return p.Write(addr, data) }
func (p *plainTarget) VerifyRead(addr uint64, buf []byte) error    { return p.Read(addr, buf) }

func (p *plainTarget) Checkpoint(addr uint64) error {
	if addr >= uint64(len(p.data)) {
		return errors.New("plain: out of range")
	}
	return nil
}

func (p *plainTarget) Flush() error           { return nil }
func (p *plainTarget) SuspendResume() error   { return nil }
func (p *plainTarget) CheckInvariants() error { return nil }

func TestPlainTargetPassesChecker(t *testing.T) {
	cfg := quickConfig()
	cfg.NewTargets = func(c Config) ([]Target, error) {
		return []Target{&plainTarget{data: make([]byte, c.size())}}, nil
	}
	if res := Run(cfg); res.Failure != nil {
		t.Fatalf("replay engine flagged a correct target:\n%s", res.Failure)
	}
}

// overflowTarget re-introduces the exact bounds-check bug this PR fixes in
// internal/securemem: `addr+len > size` wraps around 2^64 for addresses
// near the top of the space, accepting the access and then panicking (or
// corrupting memory) when the slice is indexed. The checker must catch it
// within the CI smoke budget.
type overflowTarget struct {
	plainTarget
}

func (o *overflowTarget) badBounds(addr uint64, n int) error {
	// BUG (deliberate): addr + n can wrap for addr near 2^64.
	if addr+uint64(n) > uint64(len(o.data)) {
		return errors.New("overflow: out of range")
	}
	return nil
}

func (o *overflowTarget) Read(addr uint64, buf []byte) error {
	if err := o.badBounds(addr, len(buf)); err != nil {
		return err
	}
	copy(buf, o.data[addr:]) // panics when the check wrongly accepted
	return nil
}

func (o *overflowTarget) Write(addr uint64, data []byte) error {
	if err := o.badBounds(addr, len(data)); err != nil {
		return err
	}
	copy(o.data[addr:], data)
	return nil
}

func (o *overflowTarget) ReadThrough(addr uint64, buf []byte) error   { return o.Read(addr, buf) }
func (o *overflowTarget) WriteThrough(addr uint64, data []byte) error { return o.Write(addr, data) }
func (o *overflowTarget) VerifyRead(addr uint64, buf []byte) error    { return o.Read(addr, buf) }

// TestCheckerCatchesReintroducedOverflow is the acceptance demonstration:
// a target carrying the pre-fix overflow-prone bounds check is flagged by
// the checker, as a library, within the same seeds×ops budget CI runs.
func TestCheckerCatchesReintroducedOverflow(t *testing.T) {
	cfg := DefaultConfig() // the CI smoke budget: 25 seeds × 200 ops
	cfg.NewTargets = func(c Config) ([]Target, error) {
		return []Target{&overflowTarget{plainTarget{data: make([]byte, c.size())}}}, nil
	}
	res := Run(cfg)
	if res.Failure == nil {
		t.Fatal("checker missed the re-introduced overflow bounds check within the smoke budget")
	}
	f := res.Failure
	if !strings.Contains(f.Reason, "panic") && !strings.Contains(f.Reason, "accepted an out-of-range") {
		t.Errorf("failure should stem from the wrapping check accepting a bad op, got: %s", f.Reason)
	}
	// The shrinker should cut it down to (close to) the single hostile op.
	if len(f.Seq.Ops) > 2 {
		t.Errorf("shrunk reproducer has %d ops, want <= 2: %v", len(f.Seq.Ops), f.Seq.Ops)
	}
	// And the emitted regression test must reference the failing op.
	src := f.GoTest("overflow")
	if !strings.Contains(src, "func TestCheckRegression_overflow") {
		t.Errorf("GoTest output malformed:\n%s", src)
	}
}
