package securemem

import (
	"bytes"
	"testing"

	"github.com/salus-sim/salus/internal/crash"
)

// TestRecoverEquivalence pins the one-pass restore to the state it
// replaces: for journals covering no page, some pages, every page, a
// page rewritten across epochs, and split-state pages, the recovered
// StateDigest equals the checkpointed source's. Pages no record covers
// must come back holding the deterministic initial encryption, which the
// digest covers byte for byte.
func TestRecoverEquivalence(t *testing.T) {
	const pages = 8
	write := func(t *testing.T, s *System, page int, fill byte) {
		t.Helper()
		if err := s.Write(HomeAddr(page*4096+33), bytes.Repeat([]byte{fill}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		epochs func(t *testing.T, s *System, j *crash.Journal) TrustedRoot
	}{
		{"empty epoch", func(t *testing.T, s *System, j *crash.Journal) TrustedRoot {
			return mustCheckpoint(t, s, j)
		}},
		{"subset of pages", func(t *testing.T, s *System, j *crash.Journal) TrustedRoot {
			write(t, s, 1, 0x11)
			write(t, s, 4, 0x44)
			return mustCheckpoint(t, s, j)
		}},
		{"every page", func(t *testing.T, s *System, j *crash.Journal) TrustedRoot {
			write(t, s, 5, 0x55)
			root, err := s.FullCheckpoint(j)
			if err != nil {
				t.Fatal(err)
			}
			return root
		}},
		{"page rewritten across epochs", func(t *testing.T, s *System, j *crash.Journal) TrustedRoot {
			var root TrustedRoot
			for e := 0; e < 4; e++ {
				write(t, s, 2, byte(0x20+e))
				write(t, s, e, byte(0x30+e))
				root = mustCheckpoint(t, s, j)
			}
			return root
		}},
		{"split-state records", func(t *testing.T, s *System, j *crash.Journal) TrustedRoot {
			write(t, s, 0, 0x01)
			mustCheckpoint(t, s, j)
			if err := s.WriteThrough(6*4096+64, []byte("split-state payload")); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteThrough(3*4096, []byte("second split page")); err != nil {
				t.Fatal(err)
			}
			return mustCheckpoint(t, s, j)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newSys(t, ModelSalus, pages, 2)
			store := crash.NewMemStore()
			root := c.epochs(t, s, crash.NewJournal(store))
			want := s.StateDigest()
			r, err := Recover(salusCfg(pages, 2), store.Bytes(), root)
			if err != nil {
				t.Fatal(err)
			}
			if r.StateDigest() != want {
				t.Fatal("recovered digest differs from the source's")
			}
			// Restored state counts clean: the first checkpoint journals
			// nothing. Then every page serves and verifies.
			if _, err := r.Checkpoint(crash.NewJournal(crash.NewMemStore())); err != nil {
				t.Fatal(err)
			}
			if n := r.Stats().CheckpointPages; n != 0 {
				t.Fatalf("first checkpoint after recover journaled %d pages, want 0", n)
			}
			buf := make([]byte, 64)
			for p := 0; p < pages; p++ {
				if err := r.Read(HomeAddr(p*4096), buf); err != nil {
					t.Fatalf("page %d after recover: %v", p, err)
				}
			}
		})
	}
}

// TestRecoverZeroRecordsEqualsNew pins the initial encryption of
// uncovered pages to New's: recovering a never-checkpointed system (the
// trusted epoch 0, no journal) gives exactly a fresh New(cfg)'s digest.
func TestRecoverZeroRecordsEqualsNew(t *testing.T) {
	cfg := salusCfg(8, 2)
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Recover(cfg, nil, TrustedRoot{CXLRoot: fresh.cxlTree.Root()})
	if err != nil {
		t.Fatal(err)
	}
	if r.StateDigest() != fresh.StateDigest() {
		t.Fatal("zero-record recovery differs from a fresh New")
	}
	if !bytes.Equal(r.cxlData, fresh.cxlData) {
		t.Fatal("zero-record recovery's home bytes differ from New's initial encryption")
	}
}

// TestResumeRoundTripDigest: a resumed system holds exactly the
// suspended one's durable state, split state included.
func TestResumeRoundTripDigest(t *testing.T) {
	s := newSys(t, ModelSalus, 8, 2)
	for p := 0; p < 8; p += 3 {
		if err := s.Write(HomeAddr(p*4096+7), bytes.Repeat([]byte{byte(p + 1)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteThrough(5*4096, []byte("split before suspend")); err != nil {
		t.Fatal(err)
	}
	image, root, err := s.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resume(salusCfg(8, 2), image, root)
	if err != nil {
		t.Fatal(err)
	}
	if r.StateDigest() != s.StateDigest() {
		t.Fatal("resumed digest differs from the suspended system's")
	}
}

func mustCheckpoint(t *testing.T, s *System, j *crash.Journal) TrustedRoot {
	t.Helper()
	root, err := s.Checkpoint(j)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestMaxCheckpointBytesIsFullSplitCheckpoint pins the bound a migration
// receiver holds round deltas to: a full checkpoint of a system with
// split state writes exactly MaxCheckpointBytes, and one without less.
func TestMaxCheckpointBytesIsFullSplitCheckpoint(t *testing.T) {
	const pages = 8
	s := newSys(t, ModelSalus, pages, 2)
	j := crash.NewJournal(crash.NewMemStore())
	if _, err := s.FullCheckpoint(j); err != nil {
		t.Fatal(err)
	}
	bound := MaxCheckpointBytes(testGeo(), pages)
	if plain := j.BytesWritten(); plain >= bound {
		t.Fatalf("full checkpoint without split state wrote %d bytes, bound %d", plain, bound)
	}
	if err := s.WriteThrough(0, []byte("arm split state")); err != nil {
		t.Fatal(err)
	}
	before := j.BytesWritten()
	if _, err := s.FullCheckpoint(j); err != nil {
		t.Fatal(err)
	}
	if got := j.BytesWritten() - before; got != bound {
		t.Fatalf("full split checkpoint wrote %d bytes, want MaxCheckpointBytes %d", got, bound)
	}
}
