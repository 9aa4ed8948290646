package migrate

import (
	"testing"

	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/tenant"
)

// BenchmarkMigrateRun measures one whole migration of a 2048-page
// (8 MiB) tenant with no client traffic: handshake, the full bootstrap
// round, the final round and the cutover, which recovers and digests
// the tenant on the destination. Building each fresh destination pool
// is set-up and runs with the timer stopped.
func BenchmarkMigrateRun(b *testing.B) {
	const pages = 2048
	geo := testGeometry()
	newBenchPool := func() *tenant.Pool {
		p, err := tenant.NewPool(tenant.Config{
			Geometry: geo,
			Slices:   []tenant.Slice{{ID: "m", BasePage: 0, Pages: pages, Frames: 512}},
		})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	src := newBenchPool()
	m, err := src.Tenant("m")
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64)
	for p := 0; p < pages; p += 3 {
		data[0] = byte(p)
		if err := m.Write(securemem.HomeAddr(p*geo.PageSize+40), data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(pages * geo.PageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := newBenchPool()
		b.StartTimer()
		if _, err := Run(Config{SourcePool: src, Source: m, DestPool: dst, Nonce: [32]byte{byte(i)}}); err != nil {
			b.Fatal(err)
		}
	}
}
