// Package oracle is the byte-level reference model every salus-check
// campaign holds a system under test to.
//
// A Bytes mirrors one region of plaintext. A write known to have applied
// sets its bytes outright. A write whose outcome is unknown (it failed
// after it may have reached the system, in whole or in part) makes every
// byte it touched ambiguous: from then on the byte may hold its previous
// value or the value of any write still unresolved over it, and nothing
// else. The next observation of an ambiguous byte must read back one of
// those candidates and resolves the byte to what it saw; a resolved byte
// must read back exactly. Anything else is a Divergence.
//
// A Bytes is not safe for concurrent use. Callers that update it from
// several goroutines serialise the updates themselves (the serve client
// runs them under the server's engine lock) and take Snapshot/Restore
// only while nothing else touches it.
package oracle

import (
	"bytes"
	"fmt"
)

// Bytes is the expected content of a region, ambiguity included.
type Bytes struct {
	want []byte
	// cand holds, per ambiguous offset, the candidate values with the
	// pre-ambiguity value first; nil entries are resolved bytes. The
	// slice itself stays nil until the first ambiguous write.
	cand      [][]byte
	ambiguous int
}

// New returns an oracle for an n-byte region of zeros.
func New(n int) *Bytes { return &Bytes{want: make([]byte, n)} }

// Of returns an oracle for a region that currently holds b.
func Of(b []byte) *Bytes { return &Bytes{want: append([]byte(nil), b...)} }

// Len returns the region size in bytes.
func (o *Bytes) Len() int { return len(o.want) }

// Ambiguities returns how many bytes are still ambiguous.
func (o *Bytes) Ambiguities() int { return o.ambiguous }

// Write records a write of data at off that is known to have applied.
func (o *Bytes) Write(off int, data []byte) {
	copy(o.want[off:], data)
	if o.cand != nil {
		for j := off; j < off+len(data); j++ {
			o.resolve(j)
		}
	}
}

// Ambiguous records a write of data at off that may or may not have
// applied, in whole or in part.
func (o *Bytes) Ambiguous(off int, data []byte) {
	if o.cand == nil {
		o.cand = make([][]byte, len(o.want))
	}
	for i, v := range data {
		c := o.cand[off+i]
		if c == nil {
			c = []byte{o.want[off+i]}
			o.ambiguous++
		}
		if bytes.IndexByte(c, v) < 0 {
			c = append(c, v)
		}
		o.cand[off+i] = c
	}
}

// Observe checks got, read back from [off, off+len(got)), and resolves
// every ambiguous byte in it to the candidate it read. It returns the
// first byte that is neither the expected value nor a candidate, as a
// *Divergence, or nil.
func (o *Bytes) Observe(off int, got []byte) error {
	if ds := o.ObserveAll(off, got); ds != nil {
		return ds[0]
	}
	return nil
}

// ObserveAll is Observe returning every divergent byte, in offset order;
// a divergent byte stays as it was.
func (o *Bytes) ObserveAll(off int, got []byte) []*Divergence {
	var ds []*Divergence
	for i, b := range got {
		j := off + i
		switch {
		case o.cand == nil || o.cand[j] == nil:
			if b != o.want[j] {
				ds = append(ds, &Divergence{Off: j, Got: b, Want: []byte{o.want[j]}})
			}
		case bytes.IndexByte(o.cand[j], b) < 0:
			ds = append(ds, &Divergence{Off: j, Got: b, Want: o.cand[j]})
		default:
			o.want[j] = b
			o.resolve(j)
		}
	}
	return ds
}

func (o *Bytes) resolve(j int) {
	if o.cand[j] != nil {
		o.cand[j] = nil
		o.ambiguous--
	}
}

// Snapshot returns a deep copy, for rewinding with Restore when the
// system under test rolls back to a checkpoint taken at the same cut.
func (o *Bytes) Snapshot() *Bytes {
	s := &Bytes{want: append([]byte(nil), o.want...), ambiguous: o.ambiguous}
	if o.cand != nil {
		s.cand = make([][]byte, len(o.cand))
		for j, c := range o.cand {
			if c != nil {
				s.cand[j] = append([]byte(nil), c...)
			}
		}
	}
	return s
}

// Restore rewinds the oracle to a snapshot of the same region.
func (o *Bytes) Restore(s *Bytes) { *o = *s.Snapshot() }

// Divergence is one byte that read back a value the oracle rules out.
type Divergence struct {
	Off  int    // offset within the region
	Got  byte   // the value read
	Want []byte // the expected value, or every candidate of an ambiguous byte
}

func (d *Divergence) Error() string {
	if len(d.Want) == 1 {
		return fmt.Sprintf("byte +%d: got %#02x, want %#02x", d.Off, d.Got, d.Want[0])
	}
	return fmt.Sprintf("byte +%d: got %#02x, want one of % #x", d.Off, d.Got, d.Want)
}
