// Package secsim contains the timing-model security engines that attach to
// the simulated memory system. An engine decides, for every data access,
// page migration, and page eviction, which security-metadata transfers hit
// the memories (counter blocks, MAC sectors, BMT nodes) and when the
// security processing completes. Three engines implement the paper's
// compared configurations: None (no protection), Baseline (conventional
// location-coupled metadata), and Salus (the unified relocation-friendly
// model).
//
// Metadata is organised per memory partition with channel-local addressing,
// following PSSM: the metadata of a data chunk lives in the same channel as
// the chunk, which is why a page interleaved over N channels has its
// metadata spread over those same N channels.
package secsim

import (
	"github.com/salus-sim/salus/internal/cache"
	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/cxlmem"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// HomeAddr and DevAddr alias the canonical address-domain types so engine
// signatures stay readable; see securemem's addr.go for the convention.
type (
	HomeAddr = securemem.HomeAddr
	DevAddr  = securemem.DevAddr
)

// Engine is the security model attached to the memory system.
type Engine interface {
	// Name identifies the model in reports.
	Name() string
	// OnRead runs the read-side security work for a device-resident sector
	// and fires done when the data may be released to the core.
	OnRead(homeAddr HomeAddr, devAddr DevAddr, done sim.Handler)
	// OnWrite runs the write-side security work (counter bump, MAC
	// generation, tree update) for a device-resident sector.
	OnWrite(homeAddr HomeAddr, devAddr DevAddr, done sim.Handler)
	// OnMigrateIn runs the security work of copying homePage into frame.
	// Data movement itself is the page cache's job.
	OnMigrateIn(homePage, frame int, done sim.Handler)
	// OnChunkFill runs the security work of a partial (chunk-granular)
	// fill under predictive migration; whole-page fills use OnMigrateIn.
	OnChunkFill(homePage, frame, chunk int, done sim.Handler)
	// OnEvict runs the security work of evicting a frame. dirty and
	// present are per-chunk bitmasks maintained by the page cache: present
	// is every chunk actually filled into the frame (all of them under
	// whole-page migration), dirty the subset written.
	//
	// In every method, done may be nil when the caller needs no
	// completion.
	OnEvict(homePage, frame int, dirty, present uint64, done sim.Handler)
	// FineGrainedWriteback reports whether eviction data traffic is
	// limited to dirty chunks (Salus dirty tracking) or whole pages.
	FineGrainedWriteback() bool
}

// Ctx bundles the handles every engine needs.
type Ctx struct {
	Eng    *sim.Engine
	Cfg    config.Config
	Device *dram.Memory
	CXL    *cxlmem.Memory
	Ops    *stats.Ops

	ops   sim.Pool[op]
	fills sim.Pool[metaFill]
}

// fire fires h unless it is nil.
func fire(h sim.Handler) {
	if h != nil {
		h.Fire()
	}
}

// op is one security operation in flight: a join over its parallel legs
// (metadata fetches, transfers, tree walks, each firing the op once), an
// optional fixed tail (the MAC or AES pipeline), then done. The context
// fields carry what the engine's continuations need; ctr and mac are the
// operation's own metadata-cache fetches. Ops are pooled in the Ctx.
type op struct {
	ctx     *Ctx
	pending int
	tail    sim.Cycle
	hasTail bool
	// then, when set, runs instead of the tail once the legs have joined;
	// it must end in finish.
	then func(o *op)
	done sim.Handler

	ch, leaf, frame  int
	ctrAddr, macAddr uint64
	write, first     bool

	ctr, mac leg
}

// newOp returns a pooled operation that fires done when it finishes.
func (c *Ctx) newOp(done sim.Handler) *op {
	o := c.ops.Get()
	o.ctx, o.done = c, done
	o.ctr.op, o.mac.op = o, o
	return o
}

// withTail makes the operation wait d cycles after its legs joined.
func (o *op) withTail(d sim.Cycle) *op {
	o.tail, o.hasTail = d, true
	return o
}

// start arms the join for n legs. n == 0 joins at once.
func (o *op) start(n int) {
	o.pending = n
	if n == 0 {
		o.joined()
	}
}

// Fire records one leg's arrival.
func (o *op) Fire() {
	o.pending--
	if o.pending == 0 {
		o.joined()
	}
}

func (o *op) joined() {
	switch {
	case o.then != nil:
		o.then(o)
	case o.hasTail:
		o.ctx.Eng.Schedule(o.ctx.Eng.Now()+o.tail, (*opTail)(o))
	default:
		o.finish()
	}
}

// finish recycles the operation and fires its done.
func (o *op) finish() {
	done := o.done
	o.ctx.ops.Put(o)
	fire(done)
}

// opTail is an op whose tail latency has elapsed.
type opTail op

func (t *opTail) Fire() { (*op)(t).finish() }

// leg is one metadata-cache fetch on behalf of an op or a tree walk.
// Fetch records whether the sector hit and runs then once it is cached.
type leg struct {
	then        func(l *leg)
	hit         bool
	op          *op
	walk        *walk
	addr, extra uint64
}

// Fire runs the continuation; the MSHR fires a missing leg on fill.
func (l *leg) Fire() { l.then(l) }

// joinLeg is the continuation of a fetch whose only job is to arrive.
func joinLeg(l *leg) { l.op.Fire() }

// chanLocal converts a device address to (channel, channel-local offset):
// consecutive chunks go to consecutive channels, and each channel's chunks
// are dense in its local metadata address space.
func (c *Ctx) chanLocal(devAddr DevAddr) (channel int, local uint64) {
	cs := uint64(c.Cfg.Geometry.ChunkSize)
	n := uint64(c.Cfg.Memory.DeviceChannels)
	chunk := uint64(devAddr) / cs
	channel = int(chunk % n)
	local = (chunk/n)*cs + uint64(devAddr)%cs
	return channel, local
}

// metaCache is a metadata cache in front of one memory (a device partition
// or the CXL controller): lookups that miss fetch a 32-byte sector from the
// backing memory, and dirty victims write back.
type metaCache struct {
	ctx     *Ctx
	c       *cache.Cache
	class   stats.Class
	channel int // device channel, or -1 for the CXL side

	// parked holds, in arrival order, the misses that found every MSHR
	// busy; each MSHR release replays them until the file is full again.
	parked sim.Queue[*leg]
}

// metaFill is one metadata-sector read from the backing memory; it
// completes the sector's MSHR when the data arrives.
type metaFill struct {
	m     *metaCache
	block cache.Addr
	extra uint64
}

func (f *metaFill) Fire() {
	m, block, extra := f.m, f.block, f.extra
	m.ctx.fills.Put(f)
	m.writebackVictim(m.c.CompleteMSHR(block, extra))
	m.wake()
}

func newMetaCache(ctx *Ctx, sizeKB, ways, mshrs, channel int, class stats.Class) *metaCache {
	return &metaCache{
		ctx: ctx,
		c: cache.New(cache.Config{
			SizeBytes:  sizeKB * 1024,
			BlockSize:  32, // metadata accessed at sector granularity
			SectorSize: 32,
			Ways:       ways,
			MSHRs:      mshrs,
		}),
		class:   class,
		channel: channel,
	}
}

// backingAccess issues a 32-byte transfer to the backing memory.
func (m *metaCache) backingAccess(done sim.Handler) {
	if m.channel >= 0 {
		m.ctx.Device.AccessChannel(m.channel, 32, m.class, done)
	} else {
		m.ctx.CXL.Access(32, m.class, done)
	}
}

// writebackVictim spills a dirty victim to the backing memory.
func (m *metaCache) writebackVictim(v cache.Victim, evicted bool) {
	if evicted && v.Dirty != 0 {
		m.backingAccess(nil)
	}
}

// Fetch ensures addr's 32-byte metadata sector is cached and then runs
// l's continuation, with l.hit reporting whether the sector was already
// cached (a hit runs it at once). extra is the caller-managed tag stored
// with the line.
func (m *metaCache) Fetch(addr uint64, extra uint64, l *leg) {
	l.addr, l.extra = addr, extra
	block := m.c.BlockAddr(cache.Addr(addr))
	r := m.c.Lookup(block, 1)
	if r.Miss == 0 {
		l.hit = true
		l.then(l)
		return
	}
	l.hit = false
	switch m.c.AllocateMSHR(block, 1, l) {
	case cache.MSHRNew:
		f := m.ctx.fills.Get()
		f.m, f.block, f.extra = m, block, extra
		m.backingAccess(f)
	case cache.MSHRMerged:
		// l fires with the existing fill.
	case cache.MSHRFull:
		// Structural stall: wait in the replay queue for a free MSHR.
		m.parked.Push(l)
	}
}

// wake replays parked misses in arrival order while an MSHR is free. A
// replayed miss hits, merges or takes a new MSHR; it never parks again.
func (m *metaCache) wake() {
	for m.parked.Len() > 0 && m.c.OutstandingMSHRs() < m.c.MSHRCapacity() {
		l := m.parked.Pop()
		m.Fetch(l.addr, l.extra, l)
	}
}

// MarkDirty marks addr's cached sector dirty (after a Fetch).
func (m *metaCache) MarkDirty(addr uint64) {
	m.c.MarkDirty(m.c.BlockAddr(cache.Addr(addr)), 1)
}

// Install fills addr's sector directly (metadata produced on-chip, e.g. a
// freshly reconstructed counter group), marking it dirty.
func (m *metaCache) Install(addr, extra uint64) {
	block := m.c.BlockAddr(cache.Addr(addr))
	m.writebackVictim(m.c.Fill(block, 1, extra))
	m.c.MarkDirty(block, 1)
}

// Invalidate drops addr's sector without writeback (used when a page's
// device-side metadata becomes meaningless after eviction).
func (m *metaCache) Invalidate(addr uint64) {
	m.c.Invalidate(m.c.BlockAddr(cache.Addr(addr)))
}

// Stats exposes the underlying cache counters.
func (m *metaCache) Stats() cache.Stats { return m.c.Stats() }

// bmtRegion models one integrity tree's timing: a walk from a leaf's
// parent toward the root through a BMT node cache, reading missed nodes
// from the backing memory. A cached node is trusted, so the walk stops at
// the first hit; the root is always in the TCB.
type bmtRegion struct {
	cache      *metaCache
	levelBase  []uint64 // synthetic node base address per level
	levelNodes []int
	free       []*walk // finished walks, kept with their path storage
}

// newBMTRegion sizes a tree over nLeaves leaf blocks. Addresses are
// synthetic, unique within the cache's index space.
func newBMTRegion(cache *metaCache, nLeaves int, addrBase uint64) *bmtRegion {
	r := &bmtRegion{cache: cache}
	n := nLeaves
	base := addrBase
	for n > 1 {
		n = (n + 7) / 8
		r.levelBase = append(r.levelBase, base)
		r.levelNodes = append(r.levelNodes, n)
		base += uint64(n) * 32
	}
	return r
}

// Levels returns the number of interior levels below the root.
func (r *bmtRegion) Levels() int { return len(r.levelNodes) }

// walk is one tree walk in flight: a join over the path nodes it fetches.
// Its path array holds one leg per tree level and is kept across reuse.
type walk struct {
	region  *bmtRegion
	dirty   bool
	pending int
	done    sim.Handler
	path    []leg
}

// Fire records one path node's arrival.
func (w *walk) Fire() {
	w.pending--
	if w.pending == 0 {
		done := w.done
		w.done = nil
		w.region.free = append(w.region.free, w)
		fire(done)
	}
}

// walkLeg marks an updated node dirty once cached, then joins.
func walkLeg(l *leg) {
	w := l.walk
	if w.dirty {
		w.region.cache.MarkDirty(l.addr)
	}
	w.Fire()
}

// walk traverses from the leaf's parent upward. Verification ends at the
// first *cached* ancestor (a trusted node); updates continue to the root
// so every ancestor is refreshed and marked dirty. The path nodes below
// the trusted ancestor are fetched in parallel — the verification engine
// is pipelined, so a cold walk costs one memory round trip, not one per
// level.
func (r *bmtRegion) walk(leaf int, dirty bool, done sim.Handler) {
	if len(r.levelNodes) == 0 {
		fire(done)
		return
	}
	var w *walk
	if n := len(r.free); n > 0 {
		w = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		w = &walk{region: r, path: make([]leg, len(r.levelNodes))}
		for i := range w.path {
			w.path[i].walk = w
			w.path[i].then = walkLeg
		}
	}
	w.dirty, w.done = dirty, done
	n := 0
	idx := leaf
	for level := 0; level < len(r.levelNodes); level++ {
		idx /= 8
		addr := r.levelBase[level] + uint64(idx)*32
		w.path[n].addr = addr
		n++
		if !dirty {
			if _, _, _, present := r.cache.c.Peek(cache.Addr(addr)); present {
				break // trusted cached ancestor ends the verification
			}
		}
	}
	w.pending = n
	for i := 0; i < n; i++ {
		r.cache.Fetch(w.path[i].addr, 0, &w.path[i])
	}
}

// Verify runs a read-side freshness check for the counter block at leaf.
func (r *bmtRegion) Verify(leaf int, done sim.Handler) { r.walk(leaf, false, done) }

// Update runs a write-side path refresh for the counter block at leaf.
func (r *bmtRegion) Update(leaf int, done sim.Handler) { r.walk(leaf, true, done) }

// HitRates summarises a metadata cache's sector hit rate (0..1); used for
// the per-run cache report.
func hitRate(st cache.Stats) float64 {
	total := st.SectorHits + st.SectorMisses
	if total == 0 {
		return 0
	}
	return float64(st.SectorHits) / float64(total)
}
