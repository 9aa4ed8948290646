// Package xbar models the GPC-to-partition interconnect with the paper's
// flipped translation order (§IV-B): L1 and the page tables use CXL (home)
// addresses permanently, and the CXL-to-GPU mapping is resolved at the
// interconnect. Each GPC port carries a 128-entry mapping cache; misses go
// to a control logic that reads the hashed mapping table from device
// memory (4 mappings per 32-byte sector) and triggers page copies for
// non-resident pages. The same control logic owns the 32-entry buffer that
// accumulates fine-grained dirty bits before they reach memory.
package xbar

import (
	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/memreq"
	"github.com/salus-sim/salus/internal/pagecache"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// lruSet is a tiny LRU set of page numbers used for the mapping caches and
// the dirty buffer.
type lruSet struct {
	cap   int
	clock uint64
	m     map[int]uint64
}

func newLRUSet(capacity int) *lruSet {
	return &lruSet{cap: capacity, m: make(map[int]uint64, capacity)}
}

// touch marks page present and returns whether it already was; when the
// set overflows, the least recently used entry is evicted and returned.
func (l *lruSet) touch(page int) (present bool, evicted int, didEvict bool) {
	l.clock++
	if _, ok := l.m[page]; ok {
		l.m[page] = l.clock
		return true, 0, false
	}
	if len(l.m) >= l.cap {
		victim, best := -1, uint64(0)
		//salus-lint:ignore simclock recency stamps are unique, so the minimum is the same whatever the visiting order
		for p, t := range l.m {
			if victim < 0 || t < best {
				victim, best = p, t
			}
		}
		delete(l.m, victim)
		evicted, didEvict = victim, true
	}
	l.m[page] = l.clock
	return false, evicted, didEvict
}

func (l *lruSet) drop(page int) { delete(l.m, page) }

// Xbar routes memory requests from GPCs to memory partitions.
type Xbar struct {
	eng    *sim.Engine
	geo    config.Geometry
	device *dram.Memory
	pc     *pagecache.PageCache
	ops    *stats.Ops

	latency   sim.Cycle
	mapCaches []*lruSet // per GPC
	dirtyBuf  *lruSet   // control-logic dirty-bitmask buffer

	// sharers tracks, per home page, which GPC mapping caches were handed
	// the translation, so eviction-time invalidations go only to that
	// subset (§IV-B: "invalidation is sent only to a subset of the mapping
	// caches to reduce generated traffic").
	sharers map[int]uint32

	proceedFn, crossFn, resolveFn memreq.Cont // continuations, bound once
}

// New builds the interconnect for the given number of GPCs.
func New(eng *sim.Engine, cfg config.Config, device *dram.Memory,
	pc *pagecache.PageCache, ops *stats.Ops) *Xbar {
	x := &Xbar{
		eng:      eng,
		geo:      cfg.Geometry,
		device:   device,
		pc:       pc,
		ops:      ops,
		latency:  sim.Cycle(cfg.GPU.XbarLatency),
		dirtyBuf: newLRUSet(cfg.Security.DirtyBufferEntries),
		sharers:  make(map[int]uint32),
	}
	for i := 0; i < cfg.GPU.GPCs(); i++ {
		x.mapCaches = append(x.mapCaches, newLRUSet(cfg.Security.MappingCacheEntries))
	}
	x.proceedFn, x.crossFn, x.resolveFn = x.proceed, x.cross, x.resolve
	return x
}

// mappingSectorAddr returns the device address of the hashed mapping-table
// sector holding a page's mapping (4 consecutive mappings per 32 B sector,
// interleaved like data).
func (x *Xbar) mappingSectorAddr(page int) uint64 {
	return uint64(page/4) * 32
}

// Request routes one memory access from GPC r.GPC. Once the page is
// resident and the request has crossed the interconnect, r.Dev holds the
// device address and r fires.
func (x *Xbar) Request(r *memreq.Request) {
	page := r.Home.Page(x.geo.PageSize)
	gpc := r.GPC % len(x.mapCaches)
	r.Push(x.resolveFn)
	r.Push(x.crossFn)

	present, evicted, didEvict := x.mapCaches[gpc].touch(page)
	if didEvict {
		x.sharers[evicted] &^= 1 << uint(gpc)
	}
	if present {
		x.ops.MappingCacheHits++
		x.proceed(r)
		return
	}
	x.ops.MappingCacheMisses++
	x.sharers[page] |= 1 << uint(gpc)
	// Control logic reads the mapping sector from device memory; mapping
	// cache fills (and silent evictions) follow.
	r.Push(x.proceedFn)
	x.device.Access(x.mappingSectorAddr(page), 32, stats.Mapping, r)
}

// proceed starts the crossing once the translation is known.
func (x *Xbar) proceed(r *memreq.Request) { x.eng.Schedule(x.eng.Now()+x.latency, r) }

// cross hands the request to the page cache on the far side.
func (x *Xbar) cross(r *memreq.Request) { x.pc.Access(r) }

// resolve records a store's dirty bit and returns the request.
func (x *Xbar) resolve(r *memreq.Request) {
	if r.Write {
		x.trackDirty(r.Home.Page(x.geo.PageSize))
	}
	r.Fire()
}

// Invalidate implements the directed invalidation protocol: when a page
// leaves the device tier, the control logic notifies exactly the GPC
// mapping caches that hold its translation. It returns the number of
// invalidation messages sent.
func (x *Xbar) Invalidate(homePage int) int {
	mask, ok := x.sharers[homePage]
	if !ok || mask == 0 {
		return 0
	}
	n := 0
	for g := 0; g < len(x.mapCaches); g++ {
		if mask&(1<<uint(g)) == 0 {
			continue
		}
		x.mapCaches[g].drop(homePage)
		n++
	}
	delete(x.sharers, homePage)
	x.ops.MappingInvalidations += uint64(n)
	return n
}

// trackDirty records a chunk-granular dirty-bit update through the
// control logic's buffer: buffered pages update for free; a miss reads the
// mapping from memory first, and the LRU spill writes one back.
func (x *Xbar) trackDirty(page int) {
	present, _, evicted := x.dirtyBuf.touch(page)
	if present {
		return
	}
	x.device.Access(x.mappingSectorAddr(page), 32, stats.Mapping, nil)
	if evicted {
		x.device.Access(x.mappingSectorAddr(page), 32, stats.Mapping, nil)
	}
}
