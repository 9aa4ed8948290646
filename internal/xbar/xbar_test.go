package xbar

import (
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/cxlmem"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/memreq"
	"github.com/salus-sim/salus/internal/pagecache"
	"github.com/salus-sim/salus/internal/secsim"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

type passSec struct{}

func (passSec) Name() string                                                  { return "pass" }
func (passSec) OnRead(h secsim.HomeAddr, d secsim.DevAddr, done sim.Handler)  { done.Fire() }
func (passSec) OnWrite(h secsim.HomeAddr, d secsim.DevAddr, done sim.Handler) { done.Fire() }
func (passSec) OnMigrateIn(p, f int, done sim.Handler)                        { done.Fire() }
func (passSec) OnChunkFill(p, f, c int, done sim.Handler)                     { done.Fire() }
func (passSec) OnEvict(p, f int, dirty, present uint64, done sim.Handler)     { done.Fire() }
func (passSec) FineGrainedWriteback() bool                                    { return true }

// req builds a request from GPC gpc whose completion calls done with the
// resolved device address.
func req(gpc int, home secsim.HomeAddr, write bool, done func(secsim.DevAddr)) *memreq.Request {
	r := &memreq.Request{Home: home, Write: write, GPC: gpc}
	r.Push(func(r *memreq.Request) { done(r.Dev) })
	return r
}

func testXbar(t *testing.T, mapEntries, dirtyEntries int) (*sim.Engine, *Xbar, *stats.Run) {
	t.Helper()
	eng := sim.NewEngine()
	run := &stats.Run{}
	cfg := config.Default()
	cfg.GPU.NumSMs = 8
	cfg.GPU.SMsPerGPC = 4
	cfg.Security.MappingCacheEntries = mapEntries
	cfg.Security.DirtyBufferEntries = dirtyEntries
	device := dram.New(eng, 4, 32, 50, uint64(cfg.Geometry.ChunkSize), &run.Traffic)
	cxl := cxlmem.New(eng, 32, 1, 200, &run.Traffic)
	pc, err := pagecache.New(eng, cfg.Geometry, device, cxl, passSec{}, &run.Ops, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(eng, cfg, device, pc, &run.Ops), run
}

func TestLRUSet(t *testing.T) {
	l := newLRUSet(2)
	if present, _, _ := l.touch(1); present {
		t.Error("fresh entry present")
	}
	if present, _, _ := l.touch(1); !present {
		t.Error("repeat entry absent")
	}
	l.touch(2)
	l.touch(1) // 1 is MRU
	present, evicted, did := l.touch(3)
	if present || !did || evicted != 2 {
		t.Errorf("touch(3) = (%v,%d,%v), want evict of 2", present, evicted, did)
	}
	l.drop(1)
	if present, _, _ := l.touch(1); present {
		t.Error("dropped entry still present")
	}
}

func TestMissThenHit(t *testing.T) {
	eng, x, run := testXbar(t, 16, 8)
	done := 0
	eng.At(0, func() {
		x.Request(req(0, 0, false, func(secsim.DevAddr) {
			done++
			x.Request(req(0, 64, false, func(secsim.DevAddr) { done++ }))
		}))
	})
	eng.Run(0)
	if done != 2 {
		t.Fatalf("completed %d, want 2", done)
	}
	if run.Ops.MappingCacheMisses != 1 {
		t.Errorf("misses = %d, want 1", run.Ops.MappingCacheMisses)
	}
	if run.Ops.MappingCacheHits != 1 {
		t.Errorf("hits = %d, want 1", run.Ops.MappingCacheHits)
	}
	// The miss read one mapping sector.
	if got := run.Traffic.Bytes(stats.Device, stats.Mapping); got != 32 {
		t.Errorf("mapping traffic = %d, want 32", got)
	}
}

func TestPerGPCCaches(t *testing.T) {
	eng, x, run := testXbar(t, 16, 8)
	done := 0
	eng.At(0, func() {
		x.Request(req(0, 0, false, func(secsim.DevAddr) {
			// Same page from another GPC: its own cache misses.
			x.Request(req(1, 0, false, func(secsim.DevAddr) { done++ }))
		}))
	})
	eng.Run(0)
	if done != 1 {
		t.Fatal("requests incomplete")
	}
	if run.Ops.MappingCacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (per-GPC caches)", run.Ops.MappingCacheMisses)
	}
}

func TestStaleMappingRefetches(t *testing.T) {
	eng, x, run := testXbar(t, 16, 8)
	// Touch 12 pages from GPC 0 with only 8 frames: early pages evict.
	done := 0
	var visit func(pg int)
	visit = func(pg int) {
		if pg >= 12 {
			// Revisit page 0: the mapping cache entry is stale.
			x.Request(req(0, 0, false, func(secsim.DevAddr) { done++ }))
			return
		}
		x.Request(req(0, secsim.HomeAddr(pg*4096), false, func(secsim.DevAddr) { visit(pg + 1) }))
	}
	eng.At(0, func() { visit(0) })
	eng.Run(0)
	if done != 1 {
		t.Fatal("revisit incomplete")
	}
	if run.Ops.PagesMigratedIn < 13 {
		t.Errorf("migrations = %d, want >= 13 (refault after stale mapping)", run.Ops.PagesMigratedIn)
	}
}

func TestDirtyBufferAbsorbsRepeatWrites(t *testing.T) {
	eng, x, run := testXbar(t, 16, 8)
	done := 0
	eng.At(0, func() {
		x.Request(req(0, 0, true, func(secsim.DevAddr) {
			base := run.Traffic.Bytes(stats.Device, stats.Mapping)
			x.Request(req(0, 32, true, func(secsim.DevAddr) {
				// Second write to the same page: buffered dirty bit, no
				// extra mapping traffic beyond the first write's fill.
				if got := run.Traffic.Bytes(stats.Device, stats.Mapping); got != base {
					t.Errorf("repeat write added mapping traffic: %d -> %d", base, got)
				}
				done++
			}))
		}))
	})
	eng.Run(0)
	if done != 1 {
		t.Fatal("writes incomplete")
	}
}

func TestDirtyBufferSpill(t *testing.T) {
	eng, x, run := testXbar(t, 64, 2)
	// Write to 3 pages with a 2-entry dirty buffer: one spill writeback.
	done := 0
	eng.At(0, func() {
		x.Request(req(0, 0, true, func(secsim.DevAddr) {
			x.Request(req(0, 4096, true, func(secsim.DevAddr) {
				x.Request(req(0, 8192, true, func(secsim.DevAddr) { done++ }))
			}))
		}))
	})
	eng.Run(0)
	if done != 1 {
		t.Fatal("writes incomplete")
	}
	// Mapping traffic: 3 misses (route) + 3 dirty fills + 1 spill = 7
	// sector transfers; route misses and dirty fills both count.
	if got := run.Traffic.Bytes(stats.Device, stats.Mapping); got < 7*32 {
		t.Errorf("mapping traffic = %d, want >= 224 (includes one spill)", got)
	}
}

func TestMappingSectorSharing(t *testing.T) {
	_, x, _ := testXbar(t, 16, 8)
	// 4 consecutive pages share one mapping sector.
	if x.mappingSectorAddr(0) != x.mappingSectorAddr(3) {
		t.Error("pages 0-3 should share a mapping sector")
	}
	if x.mappingSectorAddr(3) == x.mappingSectorAddr(4) {
		t.Error("pages 3 and 4 should not share a mapping sector")
	}
}

func TestDirectedInvalidation(t *testing.T) {
	eng, x, run := testXbar(t, 16, 8)
	done := 0
	eng.At(0, func() {
		// GPCs 0 and 1 both fetch page 0's mapping; GPC 0 also fetches
		// page 1's.
		x.Request(req(0, 0, false, func(secsim.DevAddr) {
			x.Request(req(1, 0, false, func(secsim.DevAddr) {
				x.Request(req(0, 4096, false, func(secsim.DevAddr) { done++ }))
			}))
		}))
	})
	eng.Run(0)
	if done != 1 {
		t.Fatal("requests incomplete")
	}
	// Page 0 has two sharers; page 1 has one; page 2 has none.
	if n := x.Invalidate(0); n != 2 {
		t.Errorf("Invalidate(0) = %d, want 2", n)
	}
	if n := x.Invalidate(1); n != 1 {
		t.Errorf("Invalidate(1) = %d, want 1", n)
	}
	if n := x.Invalidate(2); n != 0 {
		t.Errorf("Invalidate(2) = %d, want 0", n)
	}
	// Idempotent: sharer state cleared.
	if n := x.Invalidate(0); n != 0 {
		t.Errorf("second Invalidate(0) = %d, want 0", n)
	}
	if run.Ops.MappingInvalidations != 3 {
		t.Errorf("invalidation messages = %d, want 3", run.Ops.MappingInvalidations)
	}
}

func TestInvalidationForcesRemissAfterEviction(t *testing.T) {
	eng, x, run := testXbar(t, 16, 8)
	done := 0
	eng.At(0, func() {
		x.Request(req(0, 0, false, func(secsim.DevAddr) {
			x.Invalidate(0) // page evicted: directed invalidation
			// The next access must miss the mapping cache again.
			missesBefore := run.Ops.MappingCacheMisses
			x.Request(req(0, 0, false, func(secsim.DevAddr) {
				if run.Ops.MappingCacheMisses != missesBefore+1 {
					t.Error("access after invalidation did not miss")
				}
				done++
			}))
		}))
	})
	eng.Run(0)
	if done != 1 {
		t.Fatal("requests incomplete")
	}
}
