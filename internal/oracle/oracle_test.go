package oracle

import (
	"errors"
	"testing"
)

func TestResolvedBytesMustMatch(t *testing.T) {
	o := New(8)
	o.Write(2, []byte{1, 2, 3})
	if err := o.Observe(0, []byte{0, 0, 1, 2, 3, 0, 0, 0}); err != nil {
		t.Fatalf("exact read flagged: %v", err)
	}
	err := o.Observe(3, []byte{9})
	var d *Divergence
	if !errors.As(err, &d) || d.Off != 3 || d.Got != 9 || len(d.Want) != 1 || d.Want[0] != 2 {
		t.Fatalf("clean-byte divergence = %v, want +3 got 9 want 2", err)
	}
}

// TestCandidateSetRule pins the rule every campaign shares: after
// ambiguous writes a byte reads back as its old value or as one of the
// unresolved writes' values, the read resolves it, and nothing else is
// ever accepted.
func TestCandidateSetRule(t *testing.T) {
	o := New(4)
	o.Ambiguous(0, []byte{5, 5})
	o.Ambiguous(1, []byte{7})
	if got := o.Ambiguities(); got != 2 {
		t.Fatalf("ambiguities = %d, want 2", got)
	}
	// Byte 1 may be 0 (neither applied), 5 or 7.
	if err := o.Observe(1, []byte{7}); err != nil {
		t.Fatalf("legitimate candidate flagged: %v", err)
	}
	if got := o.Ambiguities(); got != 1 {
		t.Fatalf("read did not resolve byte 1: %d ambiguous", got)
	}
	// Resolved to 7: the other candidates are gone.
	if err := o.Observe(1, []byte{5}); err == nil {
		t.Fatal("resolved byte accepted a stale candidate")
	}
	// Byte 0 may be 0 or 5, never 9.
	err := o.Observe(0, []byte{9})
	var d *Divergence
	if !errors.As(err, &d) || len(d.Want) != 2 {
		t.Fatalf("impossible byte = %v, want a divergence listing both candidates", err)
	}
	// A write known to have applied clears the ambiguity outright.
	o.Write(0, []byte{3})
	if o.Ambiguities() != 0 {
		t.Fatalf("applied write left %d ambiguous bytes", o.Ambiguities())
	}
	if err := o.Observe(0, []byte{3}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	o := Of([]byte{1, 2, 3, 4})
	o.Ambiguous(1, []byte{9})
	snap := o.Snapshot()
	o.Write(0, []byte{8, 8, 8, 8})
	if err := snap.Observe(0, []byte{1, 9, 3, 4}); err != nil {
		t.Fatalf("snapshot shares state with the live oracle: %v", err)
	}
	snap = o.Snapshot()
	o.Ambiguous(2, []byte{6})
	o.Restore(snap)
	if o.Ambiguities() != 0 {
		t.Fatalf("restore kept %d ambiguous bytes", o.Ambiguities())
	}
	if err := o.Observe(0, []byte{8, 8, 8, 8}); err != nil {
		t.Fatalf("restored oracle: %v", err)
	}
}

// TestObserveAllReportsEveryByte: every divergent byte is reported in
// offset order, and the bytes that read back a candidate still resolve.
func TestObserveAllReportsEveryByte(t *testing.T) {
	o := New(6)
	o.Ambiguous(1, []byte{4, 4})
	ds := o.ObserveAll(0, []byte{3, 4, 9, 0, 0, 8})
	if len(ds) != 3 || ds[0].Off != 0 || ds[1].Off != 2 || ds[2].Off != 5 {
		t.Fatalf("divergences = %v, want +0, +2 and +5", ds)
	}
	if len(ds[1].Want) != 2 {
		t.Fatalf("ambiguous divergence lists %v, want both candidates", ds[1].Want)
	}
	if o.Ambiguities() != 1 {
		t.Fatalf("%d bytes ambiguous, want only the divergent +2", o.Ambiguities())
	}
	// +1 resolved to 4; +2 may still read 0, and the divergent +0 and +5
	// kept their expected zeros.
	if ds := o.ObserveAll(0, make([]byte, 6)); len(ds) != 1 || ds[0].Off != 1 {
		t.Fatalf("divergences = %v, want only +1 (resolved to 4)", ds)
	}
}
