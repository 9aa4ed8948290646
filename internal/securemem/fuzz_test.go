package securemem

import (
	"bytes"
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
)

// Fuzz targets for the two untrusted-input decoders of the persistence
// layer. Both consume attacker-controlled bytes (the image or journal is
// explicitly untrusted storage, and a marshalled TrustedRoot blob may be
// damaged in transit even though an undamaged one is trusted); the
// contract under fuzzing is: never panic, never mis-index — reject with
// an error or produce a system whose reads verify. Both restore over a
// Backing twin holding a live engine's bytes, the way a tenant pool
// recovers into the window its current engine serves from, and a
// rejected input must leave every byte of the twin as it was.

func fuzzCfg() Config {
	return Config{
		Geometry:    config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096},
		Model:       ModelSalus,
		TotalPages:  4,
		DevicePages: 2,
	}
}

func fuzzSeedSystem(f *testing.F) *System {
	f.Helper()
	s, err := New(fuzzCfg())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Write(0, []byte("seed data")); err != nil {
		f.Fatal(err)
	}
	if err := s.WriteThrough(3*4096, []byte("split seed")); err != nil {
		f.Fatal(err)
	}
	return s
}

// liveTwin returns a Backing for fuzzCfg holding copies of s's home and
// device bytes: the window a live engine serves from.
func liveTwin(s *System) *Backing {
	return &Backing{
		Home:   bytes.Clone(s.cxlData),
		Device: bytes.Clone(s.devData),
	}
}

// restoreIntoTwin runs restore (Recover or Resume) over a fresh copy of
// live and fails t if a rejected input wrote any byte of it.
func restoreIntoTwin(t *testing.T, live *Backing, restore func(Config) (*System, error)) *System {
	cfg := fuzzCfg()
	cfg.Backing = &Backing{Home: bytes.Clone(live.Home), Device: bytes.Clone(live.Device)}
	r, err := restore(cfg)
	if err != nil {
		if !bytes.Equal(cfg.Backing.Home, live.Home) || !bytes.Equal(cfg.Backing.Device, live.Device) {
			t.Fatalf("rejected input (%v) wrote the backing", err)
		}
		return nil
	}
	return r
}

func FuzzResume(f *testing.F) {
	s := fuzzSeedSystem(f)
	live := liveTwin(s)
	image, root, err := s.Suspend()
	if err != nil {
		f.Fatal(err)
	}
	rootBytes := root.MarshalBinary()
	f.Add(image, rootBytes)
	f.Add(image[:len(image)/2], rootBytes)
	f.Add([]byte("SALUSIMG2garbage"), rootBytes)
	f.Add(image, []byte("SROOT1 damaged"))

	f.Fuzz(func(t *testing.T, img, rb []byte) {
		root, err := UnmarshalTrustedRoot(rb)
		if err != nil {
			root = TrustedRoot{}
		}
		r := restoreIntoTwin(t, live, func(cfg Config) (*System, error) { return Resume(cfg, img, root) })
		if r == nil {
			return
		}
		// A resume that was accepted must be fully readable or fail with
		// typed detection errors — never panic or mis-index.
		buf := make([]byte, 64)
		for p := 0; p < 4; p++ {
			_ = r.Read(HomeAddr(p*4096), buf)
		}
	})
}

func FuzzRecover(f *testing.F) {
	s := fuzzSeedSystem(f)
	live := liveTwin(s)
	store := crash.NewMemStore()
	j := crash.NewJournal(store)
	root1, err := s.Checkpoint(j)
	if err != nil {
		f.Fatal(err)
	}
	epoch1 := store.Bytes()
	if err := s.Write(4096, []byte("second epoch")); err != nil {
		f.Fatal(err)
	}
	root2, err := s.Checkpoint(j)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(store.Bytes(), root2.MarshalBinary())
	f.Add(epoch1, root1.MarshalBinary())
	f.Add(epoch1, root2.MarshalBinary())             // stale journal: ErrRollback path
	f.Add(store.Bytes()[:30], root2.MarshalBinary()) // torn path
	f.Add([]byte{}, root1.MarshalBinary())
	f.Add(epoch1, []byte("SROOT1 damaged")) // replays, then fails the root check

	f.Fuzz(func(t *testing.T, journal, rb []byte) {
		root, err := UnmarshalTrustedRoot(rb)
		if err != nil {
			root = TrustedRoot{Epoch: 1}
		}
		r := restoreIntoTwin(t, live, func(cfg Config) (*System, error) { return Recover(cfg, journal, root) })
		if r == nil {
			return
		}
		buf := make([]byte, 64)
		for p := 0; p < 4; p++ {
			_ = r.Read(HomeAddr(p*4096), buf)
		}
	})
}
