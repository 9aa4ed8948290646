package pagecache

import (
	"testing"
	"testing/quick"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/cxlmem"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/memreq"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// fakeSec records engine callbacks and lets tests pick the writeback policy.
type fakeSec struct {
	fine        bool
	migrates    int
	chunkFills  int
	evicts      int
	lastDirty   uint64
	lastPresent uint64
}

func (f *fakeSec) Name() string { return "fake" }
func (f *fakeSec) OnRead(h securemem.HomeAddr, d securemem.DevAddr, done sim.Handler) {
	done.Fire()
}
func (f *fakeSec) OnWrite(h securemem.HomeAddr, d securemem.DevAddr, done sim.Handler) {
	done.Fire()
}
func (f *fakeSec) OnMigrateIn(p, fr int, done sim.Handler)    { f.migrates++; done.Fire() }
func (f *fakeSec) OnChunkFill(p, fr, c int, done sim.Handler) { f.chunkFills++; done.Fire() }
func (f *fakeSec) FineGrainedWriteback() bool                 { return f.fine }
func (f *fakeSec) OnEvict(p, fr int, dirty, present uint64, done sim.Handler) {
	f.evicts++
	f.lastDirty = dirty
	f.lastPresent = present
	done.Fire()
}

// req builds a request whose completion calls done with the device
// address the page cache resolved.
func req(home securemem.HomeAddr, write bool, done func(securemem.DevAddr)) *memreq.Request {
	r := &memreq.Request{Home: home, Write: write}
	r.Push(func(r *memreq.Request) { done(r.Dev) })
	return r
}

func testSetup(fine bool, frames, totalPages int) (*sim.Engine, *PageCache, *fakeSec, *stats.Run) {
	eng := sim.NewEngine()
	run := &stats.Run{}
	geo := config.Default().Geometry
	device := dram.New(eng, 4, 32, 50, uint64(geo.ChunkSize), &run.Traffic)
	cxl := cxlmem.New(eng, 32, 1, 200, &run.Traffic)
	sec := &fakeSec{fine: fine}
	pc, err := New(eng, geo, device, cxl, sec, &run.Ops, totalPages, frames)
	if err != nil {
		panic(err)
	}
	return eng, pc, sec, run
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	geo := config.Default().Geometry
	if _, err := New(eng, geo, nil, nil, &fakeSec{}, &stats.Ops{}, 10, 0); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := New(eng, geo, nil, nil, &fakeSec{}, &stats.Ops{}, 0, 1); err == nil {
		t.Error("zero pages accepted")
	}
	big := geo
	big.PageSize = 256 * 128 // 128 chunks > 64-bit mask
	if _, err := New(eng, big, nil, nil, &fakeSec{}, &stats.Ops{}, 10, 2); err == nil {
		t.Error("oversized chunk mask accepted")
	}
}

func TestFaultThenResidentAccess(t *testing.T) {
	eng, pc, sec, run := testSetup(true, 4, 16)
	var first, second sim.Cycle
	var devAddr1, devAddr2 securemem.DevAddr
	eng.At(0, func() {
		pc.Access(req(4096+64, false, func(d securemem.DevAddr) {
			first = eng.Now()
			devAddr1 = d
			pc.Access(req(4096+64, false, func(d2 securemem.DevAddr) {
				second = eng.Now()
				devAddr2 = d2
			}))
		}))
	})
	eng.Run(0)
	if first == 0 {
		t.Fatal("fault never completed")
	}
	if second != first {
		t.Errorf("resident access took time: %d vs %d", second, first)
	}
	if devAddr1 != devAddr2 {
		t.Errorf("device address changed: %#x vs %#x", devAddr1, devAddr2)
	}
	if devAddr1%4096 != 64 {
		t.Errorf("page offset not preserved: %#x", devAddr1)
	}
	if sec.migrates != 1 {
		t.Errorf("migrations = %d, want 1", sec.migrates)
	}
	if run.Ops.PagesMigratedIn != 1 {
		t.Errorf("ops migrations = %d, want 1", run.Ops.PagesMigratedIn)
	}
	if !pc.Resident(1) {
		t.Error("page 1 not resident after access")
	}
}

func TestConcurrentFaultsMerge(t *testing.T) {
	eng, pc, sec, _ := testSetup(true, 4, 16)
	done := 0
	eng.At(0, func() {
		for i := 0; i < 5; i++ {
			pc.Access(req(securemem.HomeAddr(8192+i*32), false, func(securemem.DevAddr) { done++ }))
		}
	})
	eng.Run(0)
	if done != 5 {
		t.Fatalf("completed = %d, want 5", done)
	}
	if sec.migrates != 1 {
		t.Errorf("migrations = %d, want 1 (merged fault)", sec.migrates)
	}
}

func TestMigrationDataTraffic(t *testing.T) {
	eng, pc, _, run := testSetup(true, 4, 16)
	eng.At(0, func() { pc.Access(req(0, false, func(securemem.DevAddr) {})) })
	eng.Run(0)
	if got := run.Traffic.Bytes(stats.CXL, stats.Data); got != 4096 {
		t.Errorf("CXL data = %d, want 4096", got)
	}
	if got := run.Traffic.Bytes(stats.Device, stats.Data); got != 4096 {
		t.Errorf("device data = %d, want 4096", got)
	}
}

func TestEvictionFineGrained(t *testing.T) {
	eng, pc, sec, run := testSetup(true, 2, 16)
	eng.At(0, func() {
		// Write one chunk of page 0, then touch pages 1..3 to force
		// eviction of page 0 (2 frames, low-water keeps evicting).
		pc.Access(req(256, true, func(securemem.DevAddr) {
			pc.Access(req(4096, false, func(securemem.DevAddr) {
				pc.Access(req(8192, false, func(securemem.DevAddr) {
					pc.Access(req(12288, false, func(securemem.DevAddr) {}))
				}))
			}))
		}))
	})
	eng.Run(0)
	if sec.evicts == 0 {
		t.Fatal("no evictions")
	}
	// Fine-grained: only the dirty chunk (chunk 1 of page 0) wrote back.
	if run.Ops.ChunksWrittenBack != 1 {
		t.Errorf("chunks written back = %d, want 1", run.Ops.ChunksWrittenBack)
	}
	wbBytes := run.Traffic.Bytes(stats.CXL, stats.Data) - 4*4096 // minus the 4 fills
	if wbBytes != 256 {
		t.Errorf("writeback bytes = %d, want 256", wbBytes)
	}
}

func TestEvictionPageGranular(t *testing.T) {
	eng, pc, sec, run := testSetup(false, 2, 16)
	eng.At(0, func() {
		pc.Access(req(256, true, func(securemem.DevAddr) {
			pc.Access(req(4096, false, func(securemem.DevAddr) {
				pc.Access(req(8192, false, func(securemem.DevAddr) {
					pc.Access(req(12288, false, func(securemem.DevAddr) {}))
				}))
			}))
		}))
	})
	eng.Run(0)
	if sec.evicts == 0 {
		t.Fatal("no evictions")
	}
	// Page-granular: every evicted page writes 16 chunks regardless of
	// dirtiness.
	if run.Ops.ChunksWrittenBack%16 != 0 || run.Ops.ChunksWrittenBack == 0 {
		t.Errorf("chunks written back = %d, want a positive multiple of 16", run.Ops.ChunksWrittenBack)
	}
}

func TestDirtyMaskPassedToEngine(t *testing.T) {
	eng, pc, sec, _ := testSetup(true, 2, 16)
	eng.At(0, func() {
		pc.Access(req(0, true, func(securemem.DevAddr) { // chunk 0 dirty
			pc.Access(req(512, true, func(securemem.DevAddr) { // chunk 2 dirty
				pc.Access(req(4096, false, func(securemem.DevAddr) {
					pc.Access(req(8192, false, func(securemem.DevAddr) {
						pc.Access(req(12288, false, func(securemem.DevAddr) {}))
					}))
				}))
			}))
		}))
	})
	eng.Run(0)
	if sec.evicts == 0 {
		t.Fatal("no evictions")
	}
	if sec.lastDirty != 0 && sec.lastDirty != 0b101 {
		// Depending on LRU order, the page-0 eviction is one of them.
		t.Logf("lastDirty = %b (page order dependent)", sec.lastDirty)
	}
	if pc.DirtyMask(0) != 0 && pc.DirtyMask(0) != 0b101 {
		t.Errorf("dirty mask = %b", pc.DirtyMask(0))
	}
}

func TestThrashingManyPagesFewFrames(t *testing.T) {
	eng, pc, _, run := testSetup(true, 2, 64)
	done := 0
	var visit func(pg int)
	visit = func(pg int) {
		if pg >= 64 {
			return
		}
		pc.Access(req(securemem.HomeAddr(pg*4096), false, func(securemem.DevAddr) {
			done++
			visit(pg + 1)
		}))
	}
	eng.At(0, func() { visit(0) })
	eng.Run(0)
	if done != 64 {
		t.Fatalf("visited %d pages, want 64", done)
	}
	if run.Ops.PagesMigratedIn != 64 {
		t.Errorf("migrations = %d, want 64", run.Ops.PagesMigratedIn)
	}
	if run.Ops.PagesEvicted < 60 {
		t.Errorf("evictions = %d, want >= 60", run.Ops.PagesEvicted)
	}
}

func TestRefaultAfterEviction(t *testing.T) {
	eng, pc, sec, _ := testSetup(true, 2, 16)
	var last securemem.DevAddr
	eng.At(0, func() {
		pc.Access(req(0, false, func(securemem.DevAddr) {
			pc.Access(req(4096, false, func(securemem.DevAddr) {
				pc.Access(req(8192, false, func(securemem.DevAddr) {
					pc.Access(req(12288, false, func(securemem.DevAddr) {
						// Page 0 evicted by now; access refaults.
						pc.Access(req(0, false, func(d securemem.DevAddr) { last = d + 1 }))
					}))
				}))
			}))
		}))
	})
	eng.Run(0)
	if last == 0 {
		t.Fatal("refault never completed")
	}
	if sec.migrates < 5 {
		t.Errorf("migrations = %d, want >= 5 (refault)", sec.migrates)
	}
}

func TestFramesAccessor(t *testing.T) {
	_, pc, _, _ := testSetup(true, 7, 16)
	if pc.Frames() != 7 {
		t.Errorf("Frames = %d, want 7", pc.Frames())
	}
}

func TestPredictiveModeFirstVisitDemandFills(t *testing.T) {
	eng, pc, sec, run := testSetup(true, 4, 16)
	pc.SetMode(Predictive)
	done := 0
	eng.At(0, func() {
		// First visit: no history, so nothing prefetches; the access
		// demand-fills exactly one chunk.
		pc.Access(req(256, false, func(securemem.DevAddr) { done++ }))
	})
	eng.Run(0)
	if done != 1 {
		t.Fatal("access incomplete")
	}
	if run.Ops.ChunksMigrated != 1 {
		t.Errorf("chunks migrated = %d, want 1 (demand fill only)", run.Ops.ChunksMigrated)
	}
	if got := run.Traffic.Bytes(stats.CXL, stats.Data); got != 256 {
		t.Errorf("CXL data = %d, want 256", got)
	}
	if sec.chunkFills != 1 {
		t.Errorf("chunk fills = %d, want 1", sec.chunkFills)
	}
	if sec.migrates != 0 {
		t.Errorf("whole-page migrations = %d, want 0", sec.migrates)
	}
}

func TestPredictiveModeHistoryPrefetch(t *testing.T) {
	eng, pc, _, run := testSetup(true, 2, 16)
	pc.SetMode(Predictive)
	seq := 0
	eng.At(0, func() {
		// Visit page 0 touching chunks 0 and 3, evict it by touching
		// pages 1-3, then refault page 0: the predictor prefetches the
		// remembered footprint {0,3}.
		pc.Access(req(0, false, func(securemem.DevAddr) {
			pc.Access(req(768, false, func(securemem.DevAddr) {
				pc.Access(req(4096, false, func(securemem.DevAddr) {
					pc.Access(req(8192, false, func(securemem.DevAddr) {
						pc.Access(req(12288, false, func(securemem.DevAddr) {
							base := run.Ops.ChunksMigrated
							pc.Access(req(0, false, func(securemem.DevAddr) {
								// The refault prefetched 2 chunks; this
								// access hit one of them (no extra fill).
								if got := run.Ops.ChunksMigrated - base; got != 2 {
									t.Errorf("refault migrated %d chunks, want 2", got)
								}
								seq++
							}))
						}))
					}))
				}))
			}))
		}))
	})
	eng.Run(0)
	if seq != 1 {
		t.Fatal("refault incomplete")
	}
}

func TestPredictiveEvictionWritesOnlyPresent(t *testing.T) {
	// Page-granular (non-fine) writeback under predictive mode still only
	// writes chunks that were actually filled.
	eng, pc, sec, _ := testSetup(false, 2, 16)
	pc.SetMode(Predictive)
	eng.At(0, func() {
		pc.Access(req(0, true, func(securemem.DevAddr) {
			pc.Access(req(4096, false, func(securemem.DevAddr) {
				pc.Access(req(8192, false, func(securemem.DevAddr) {
					pc.Access(req(12288, false, func(securemem.DevAddr) {}))
				}))
			}))
		}))
	})
	eng.Run(0)
	if sec.evicts == 0 {
		t.Fatal("no evictions")
	}
	// Each page only ever filled one chunk, so present masks are 1-hot.
	if popcount(sec.lastPresent) > 1 {
		t.Errorf("present mask = %b, want at most one chunk", sec.lastPresent)
	}
}

func TestWholePageModePresentIsFull(t *testing.T) {
	eng, pc, sec, _ := testSetup(false, 2, 16)
	eng.At(0, func() {
		pc.Access(req(0, true, func(securemem.DevAddr) {
			pc.Access(req(4096, false, func(securemem.DevAddr) {
				pc.Access(req(8192, false, func(securemem.DevAddr) {
					pc.Access(req(12288, false, func(securemem.DevAddr) {}))
				}))
			}))
		}))
	})
	eng.Run(0)
	if sec.evicts == 0 {
		t.Fatal("no evictions")
	}
	if sec.lastPresent != (1<<16)-1 {
		t.Errorf("present mask = %b, want all 16 chunks", sec.lastPresent)
	}
}

func TestRandomAccessSequenceInvariants(t *testing.T) {
	// Property: for any access sequence, (a) every access completes
	// exactly once, (b) the returned device address preserves the page
	// offset, (c) dirty masks are always a subset of touched masks, and
	// (d) the number of resident-or-filling frames never exceeds capacity.
	f := func(raw []uint16, writeBits uint64) bool {
		eng, pc, _, _ := testSetup(true, 3, 16)
		completions := 0
		ok := true
		eng.At(0, func() {
			for i, r := range raw {
				addr := securemem.HomeAddr(r) % (16 * 4096)
				write := writeBits&(1<<uint(i%64)) != 0
				wantOff := addr.PageOffset(4096)
				pc.Access(req(addr, write, func(devAddr securemem.DevAddr) {
					completions++
					if devAddr.PageOffset(4096) != wantOff {
						ok = false
					}
				}))
			}
		})
		eng.Run(0)
		if completions != len(raw) {
			return false
		}
		for i := range pc.frames {
			f := &pc.frames[i]
			if f.dirty&^f.touched != 0 {
				return false
			}
			if f.dirty&^f.present != 0 && pc.mode == WholePage {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandomAccessSequencePredictive(t *testing.T) {
	// The same completion property under predictive partial migration,
	// plus: dirty ⊆ present always.
	f := func(raw []uint16, writeBits uint64) bool {
		eng, pc, _, _ := testSetup(true, 3, 16)
		pc.SetMode(Predictive)
		completions := 0
		eng.At(0, func() {
			for i, r := range raw {
				addr := securemem.HomeAddr(r) % (16 * 4096)
				write := writeBits&(1<<uint(i%64)) != 0
				pc.Access(req(addr, write, func(securemem.DevAddr) { completions++ }))
			}
		})
		eng.Run(0)
		if completions != len(raw) {
			return false
		}
		for i := range pc.frames {
			f := &pc.frames[i]
			if f.status == frameResident && f.dirty&^f.present != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLinkOutageRetriesMigration(t *testing.T) {
	eng, pc, _, run := testSetup(false, 2, 4)
	plan, err := link.ParsePlan("down@0..4")
	if err != nil {
		t.Fatal(err)
	}
	pc.SetLink(link.New(plan, link.Config{Threshold: 10, Cooldown: 1}))

	done := false
	eng.At(0, func() { pc.Access(req(0, false, func(securemem.DevAddr) { done = true })) })
	eng.Run(0)
	if !done {
		t.Fatal("access never completed across the outage")
	}
	// Four refusals, one retry pause each, before ordinal 4 goes through.
	if eng.Now() < 4*linkRetryCycles {
		t.Errorf("outage cost %d cycles, want >= %d", eng.Now(), 4*linkRetryCycles)
	}
	if run.Ops.LinkDownRefusals != 4 {
		t.Errorf("LinkDownRefusals = %d, want 4", run.Ops.LinkDownRefusals)
	}
	if run.Ops.LinkFlaps != 2 { // up->down at ordinal 0, down->up at 4
		t.Errorf("LinkFlaps = %d, want 2", run.Ops.LinkFlaps)
	}
	if !run.Ops.HasLink() {
		t.Error("link activity not visible via HasLink")
	}
}

func TestLinkBrownoutChargesLatency(t *testing.T) {
	engBase, pcBase, _, _ := testSetup(false, 2, 4)
	engBase.At(0, func() { pcBase.Access(req(0, false, func(securemem.DevAddr) {})) })
	engBase.Run(0)
	baseline := engBase.Now()

	eng, pc, _, run := testSetup(false, 2, 4)
	plan, err := link.ParsePlan("deg@0..1000:16")
	if err != nil {
		t.Fatal(err)
	}
	pc.SetLink(link.New(plan, link.DefaultConfig()))
	done := false
	eng.At(0, func() { pc.Access(req(0, false, func(securemem.DevAddr) { done = true })) })
	eng.Run(0)
	if !done {
		t.Fatal("access never completed under brownout")
	}
	if run.Ops.LinkLatencyCycles < 16 {
		t.Errorf("LinkLatencyCycles = %d, want >= 16", run.Ops.LinkLatencyCycles)
	}
	if eng.Now() < baseline+16 {
		t.Errorf("brownout added %d cycles over baseline %d, want >= 16", eng.Now()-baseline, baseline)
	}
}

func TestLinkOutageRetriesEviction(t *testing.T) {
	eng, pc, _, run := testSetup(true, 2, 6)
	// Ordinals: fills for pages 0 and 1 consume 0 and 1; the window hits
	// the eviction writeback and the fill behind it.
	plan, err := link.ParsePlan("down@2..6")
	if err != nil {
		t.Fatal(err)
	}
	pc.SetLink(link.New(plan, link.Config{Threshold: 10, Cooldown: 1}))

	completions := 0
	eng.At(0, func() {
		pc.Access(req(0, true, func(securemem.DevAddr) { completions++ }))
		pc.Access(req(4096, true, func(securemem.DevAddr) { completions++ }))
	})
	eng.Run(0)
	eng.At(eng.Now()+1, func() {
		pc.Access(req(2*4096, true, func(securemem.DevAddr) { completions++ }))
	})
	eng.Run(0)
	if completions != 3 {
		t.Fatalf("%d accesses completed, want 3", completions)
	}
	if run.Ops.LinkDownRefusals == 0 {
		t.Error("eviction/fill outage never refused a transfer")
	}
	if run.Ops.PagesEvicted == 0 {
		t.Error("no eviction happened; the outage window missed its target")
	}
}
