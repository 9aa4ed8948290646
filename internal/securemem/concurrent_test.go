package securemem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestConcurrentParallelAccess(t *testing.T) {
	c, err := NewConcurrent(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  32,
		DevicePages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const opsEach = 100
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine owns a disjoint page range.
			base := HomeAddr(g * 4 * 4096)
			for i := 0; i < opsEach; i++ {
				payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
				addr := base + HomeAddr(i%3)*4096
				if err := c.Write(addr, payload); err != nil {
					errs <- err
					return
				}
				got := make([]byte, len(payload))
				if err := c.Read(addr, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("g%d: got %q want %q", g, got, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Stats().PageMigrationsIn == 0 {
		t.Error("no migrations under concurrent load")
	}
	if c.Size() != 32*4096 {
		t.Errorf("Size = %d", c.Size())
	}
	if c.Model() != ModelSalus {
		t.Error("model wrong")
	}
	if c.Unwrap() == nil {
		t.Error("Unwrap nil")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDirectPath(t *testing.T) {
	c, err := NewConcurrent(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  16,
		DevicePages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := HomeAddr((8 + g) * 4096) // pages never touched via cache
			for i := 0; i < 50; i++ {
				v := []byte{byte(g), byte(i)}
				if err := c.WriteThrough(addr, v); err != nil {
					errs <- err
					return
				}
				got := make([]byte, 2)
				if err := c.ReadThrough(addr, got); err != nil {
					errs <- err
					return
				}
				if got[0] != byte(g) || got[1] != byte(i) {
					errs <- fmt.Errorf("g%d i%d: got %v", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentMixedOpsStress hammers one Concurrent with goroutines
// running different operation mixes at once — cached reads/writes,
// direct-path accesses, whole-system flushes, and stats/metadata reads —
// so the race detector sees every lock interleaving the wrapper must
// serialize. Data checks are deliberately loose (a concurrent Flush may
// evict between a write and its read-back, but bytes must still match,
// since flushing never loses data).
func TestConcurrentMixedOpsStress(t *testing.T) {
	c, err := NewConcurrent(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  32,
		DevicePages: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writers+readers on disjoint page ranges.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := HomeAddr(g * 4 * 4096)
			for i := 0; i < iters; i++ {
				payload := []byte(fmt.Sprintf("mix-g%d-i%d", g, i))
				addr := base + HomeAddr(i%4)*4096
				if err := c.Write(addr, payload); err != nil {
					fail(err)
					return
				}
				got := make([]byte, len(payload))
				if err := c.Read(addr, got); err != nil {
					fail(err)
					return
				}
				if !bytes.Equal(got, payload) {
					fail(fmt.Errorf("mix g%d i%d: got %q want %q", g, i, got, payload))
					return
				}
			}
		}(g)
	}
	// Direct-path traffic on its own pages (never migrated by the above).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := HomeAddr((24 + g) * 4096)
			for i := 0; i < iters; i++ {
				v := []byte{0xA0 | byte(g), byte(i)}
				if err := c.WriteThrough(addr, v); err != nil {
					fail(err)
					return
				}
				got := make([]byte, 2)
				if err := c.ReadThrough(addr, got); err != nil {
					fail(err)
					return
				}
				if got[0] != 0xA0|byte(g) {
					fail(fmt.Errorf("direct g%d i%d: got %v", g, i, got))
					return
				}
			}
		}(g)
	}
	// Flusher: forces evictions to interleave with every other op.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if err := c.Flush(); err != nil {
				fail(err)
				return
			}
		}
	}()
	// Stats/metadata readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev OpStats
			for i := 0; i < iters; i++ {
				st := c.Stats()
				// Stats is taken under the writer lock, so successive
				// snapshots never run backwards. The interesting property
				// is that Stats races with nothing under -race.
				if st.Reads < prev.Reads || st.Writes < prev.Writes || st.PageMigrationsIn < prev.PageMigrationsIn {
					fail(fmt.Errorf("stats ran backwards: %+v after %+v", st, prev))
					return
				}
				prev = st
				if c.Size() != 32*4096 {
					fail(fmt.Errorf("Size = %d", c.Size()))
					return
				}
				if c.Model() != ModelSalus {
					fail(fmt.Errorf("model changed"))
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().PageEvictions == 0 {
		t.Error("stress run never evicted a page")
	}
}

func TestNewConcurrentValidation(t *testing.T) {
	if _, err := NewConcurrent(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}
