package securemem

import (
	"testing"

	"github.com/salus-sim/salus/internal/crash"
)

// BenchmarkRecover measures Recover over a full-coverage journal: one
// FullCheckpoint of a 2048-page (8 MiB) system, the bootstrap record set
// a migration destination replays. Every page has a record, so no page
// needs the initial encryption.
func BenchmarkRecover(b *testing.B) {
	const pages = 2048
	cfg := salusCfg(pages, 512)
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64)
	for p := 0; p < pages; p += 7 {
		data[0] = byte(p)
		if err := s.Write(HomeAddr(p*cfg.Geometry.PageSize+96), data); err != nil {
			b.Fatal(err)
		}
	}
	store := crash.NewMemStore()
	root, err := s.FullCheckpoint(crash.NewJournal(store))
	if err != nil {
		b.Fatal(err)
	}
	journal := store.Bytes()
	want := s.StateDigest()
	b.SetBytes(int64(pages * cfg.Geometry.PageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Recover(cfg, journal, root)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && r.StateDigest() != want {
			b.Fatal("recovered digest differs from the source's")
		}
	}
}
