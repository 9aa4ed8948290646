package secsim

import (
	"github.com/salus-sim/salus/internal/cache"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// Baseline is the conventional security model of prior GPU work: split
// counters, MACs, and a BMT per memory, all indexed by the *physical*
// address of the data. Each memory partition holds the metadata for its
// local data (PSSM organisation). The consequences the paper measures:
//
//   - Migrating a page reads counters + MACs from the CXL side, verifies
//     freshness there, decrypts, re-encrypts every sector under
//     device-side counters, and writes device-side counters + MACs.
//   - Evicting mirrors all of that in the other direction, for the whole
//     page (no dirty bit in GPU page tables).
type Baseline struct {
	ctx *Ctx

	// SkipRelocationWork disables the security work tied to page movement
	// (migration and eviction metadata transfers and re-encryptions) while
	// keeping the per-access security costs. This is the hypothetical
	// "security without data-movement overheads" system the paper's Fig. 3
	// motivation compares against.
	SkipRelocationWork bool

	// MonolithicCounters switches from split counters to SGX-style
	// monolithic 64-bit counters (one per 32 B sector, so a 32-byte
	// counter sector covers only 128 B of data instead of 1 KiB). This is
	// the organisation the paper's background contrasts split counters
	// against (§II-A1): metadata footprint and traffic grow 8x and the
	// trees deepen. Used by the counter-organisation extension study.
	MonolithicCounters bool

	// Per device channel.
	ctrCaches []*metaCache
	macCaches []*metaCache
	devTrees  []*bmtRegion

	// CXL controller side.
	cxlCtr  *metaCache
	cxlMAC  *metaCache
	cxlTree *bmtRegion

	devBytesPerChannel uint64
	totalBytes         uint64
	devBMTCaches       []*metaCache
	cxlBMTCache        *metaCache

	// Fetch continuations, bound once.
	readCtr, writeCtr, writeMAC func(l *leg)
}

// Conventional metadata coverage: one 32-byte counter sector covers 1 KiB
// of data with split counters (64-bit major + 32 6-bit minors) but only
// 128 B with SGX-style monolithic 64-bit counters; one 32-byte MAC sector
// covers one 128-byte block.
const (
	convCtrCoverage = 1024
	monoCtrCoverage = 128
	macCoverage     = 128
)

// ctrCoverage returns the bytes of data one counter sector covers under
// the configured counter organisation.
func (b *Baseline) ctrCoverage() uint64 {
	if b.MonolithicCounters {
		return monoCtrCoverage
	}
	return convCtrCoverage
}

// NewBaseline builds the conventional engine. devBytes is the device-tier
// capacity (frames × page size); totalBytes is the home space size.
func NewBaseline(ctx *Ctx, devBytes, totalBytes uint64) *Baseline {
	b := &Baseline{ctx: ctx}
	b.readCtr, b.writeCtr, b.writeMAC = b.readCtrFetched, b.writeCtrFetched, b.writeMACFetched
	ch := ctx.Cfg.Memory.DeviceChannels
	sec := ctx.Cfg.Security
	b.devBytesPerChannel = devBytes / uint64(ch)
	b.totalBytes = totalBytes
	for c := 0; c < ch; c++ {
		ctr := newMetaCache(ctx, sec.CounterCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, c, stats.Counter)
		mac := newMetaCache(ctx, sec.MACCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, c, stats.MAC)
		bmtc := newMetaCache(ctx, sec.BMTCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, c, stats.BMT)
		b.ctrCaches = append(b.ctrCaches, ctr)
		b.macCaches = append(b.macCaches, mac)
		b.devBMTCaches = append(b.devBMTCaches, bmtc)
	}
	b.cxlCtr = newMetaCache(ctx, sec.CounterCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, -1, stats.Counter)
	b.cxlMAC = newMetaCache(ctx, sec.MACCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, -1, stats.MAC)
	b.cxlBMTCache = newMetaCache(ctx, sec.BMTCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, -1, stats.BMT)
	b.rebuildTrees()
	return b
}

// rebuildTrees sizes the integrity trees for the active counter
// organisation (leaves = counter sectors in the covered region).
func (b *Baseline) rebuildTrees() {
	b.devTrees = b.devTrees[:0]
	for _, bmtc := range b.devBMTCaches {
		leaves := int(b.devBytesPerChannel / b.ctrCoverage())
		if leaves < 1 {
			leaves = 1
		}
		b.devTrees = append(b.devTrees, newBMTRegion(bmtc, leaves, 1<<40))
	}
	leaves := int(b.totalBytes / b.ctrCoverage())
	if leaves < 1 {
		leaves = 1
	}
	b.cxlTree = newBMTRegion(b.cxlBMTCache, leaves, 1<<40)
}

// SetMonolithicCounters switches the counter organisation and resizes the
// trees. Call before the simulation starts.
func (b *Baseline) SetMonolithicCounters(on bool) {
	b.MonolithicCounters = on
	b.rebuildTrees()
}

// Name implements Engine.
func (*Baseline) Name() string { return "baseline" }

// FineGrainedWriteback implements Engine: whole-page writebacks.
func (*Baseline) FineGrainedWriteback() bool { return false }

// devMeta computes the channel and channel-local metadata addresses for a
// device data address.
func (b *Baseline) devMeta(devAddr DevAddr) (ch int, ctrAddr uint64, ctrLeaf int, macAddr uint64) {
	ch, local := b.ctx.chanLocal(devAddr)
	ctrLeaf = int(local / b.ctrCoverage())
	ctrAddr = uint64(ctrLeaf) * 32
	macAddr = local / macCoverage * 32
	return ch, ctrAddr, ctrLeaf, macAddr
}

// OnRead implements Engine: fetch the counter (verifying freshness on a
// counter-cache miss) and the MAC in parallel, then pay the MAC latency.
func (b *Baseline) OnRead(homeAddr HomeAddr, devAddr DevAddr, done sim.Handler) {
	ch, ctrAddr, ctrLeaf, macAddr := b.devMeta(devAddr)
	b.ctx.Ops.MACVerifies++
	o := b.ctx.newOp(done).withTail(sim.Cycle(b.ctx.Cfg.Security.MACLatency))
	o.ch, o.leaf = ch, ctrLeaf
	o.start(2)
	o.ctr.then, o.mac.then = b.readCtr, joinLeg
	b.ctrCaches[ch].Fetch(ctrAddr, 0, &o.ctr)
	b.macCaches[ch].Fetch(macAddr, 0, &o.mac)
}

// readCtrFetched joins a cached counter at once; a missed one is
// freshness-verified first.
func (b *Baseline) readCtrFetched(l *leg) {
	o := l.op
	if l.hit {
		o.Fire()
		return
	}
	b.ctx.Ops.BMTVerifies++
	b.devTrees[o.ch].Verify(o.leaf, o)
}

// OnWrite implements Engine: bump the counter (dirty in cache), refresh
// the tree path, and produce a new MAC (dirty in cache). The store is
// posted: done fires when the counter is available, since the OTP for the
// write can be generated as soon as the counter is known.
func (b *Baseline) OnWrite(homeAddr HomeAddr, devAddr DevAddr, done sim.Handler) {
	ch, ctrAddr, ctrLeaf, macAddr := b.devMeta(devAddr)
	b.ctx.Ops.Encryptions++
	b.ctx.Ops.MACComputes++
	o := b.ctx.newOp(done)
	o.ch, o.leaf, o.ctrAddr, o.macAddr = ch, ctrLeaf, ctrAddr, macAddr
	o.start(2) // both fetches must land before the op is recycled
	o.ctr.then, o.mac.then = b.writeCtr, b.writeMAC
	b.ctrCaches[ch].Fetch(ctrAddr, 0, &o.ctr)
	b.macCaches[ch].Fetch(macAddr, 0, &o.mac)
}

func (b *Baseline) writeCtrFetched(l *leg) {
	o := l.op
	b.ctrCaches[o.ch].MarkDirty(o.ctrAddr)
	b.ctx.Ops.BMTUpdates++
	b.devTrees[o.ch].Update(o.leaf, nil)
	done := o.done
	o.done = nil
	fire(done)
	o.Fire()
}

func (b *Baseline) writeMACFetched(l *leg) {
	o := l.op
	b.macCaches[o.ch].MarkDirty(o.macAddr)
	o.Fire()
}

// OnMigrateIn implements Engine. Security work for moving one page from
// CXL to the device tier: read + verify the page's CXL counters and MACs,
// decrypt, re-encrypt everything under device counters, install device
// counters + MACs, refresh the device trees.
func (b *Baseline) OnMigrateIn(homePage, frame int, done sim.Handler) {
	if b.SkipRelocationWork {
		fire(done)
		return
	}
	g := b.ctx.Cfg.Geometry
	pageBase := uint64(homePage) * uint64(g.PageSize)
	frameBase := uint64(frame) * uint64(g.PageSize)

	nCtr := g.PageSize / int(b.ctrCoverage()) // CXL counter sectors covering the page
	nMAC := g.BlocksPerPage()                 // CXL MAC sectors
	// The page's metadata is contiguous on each side, so it moves as bulk
	// transfers: one counter read and one MAC read from CXL, one counter +
	// MAC write per device channel. Freshness walks go through the BMT
	// caches. The page's sectors then drain through the per-partition AES
	// pipes (1 sector/cycle each).
	parts := 2 + nCtr + 3*g.ChunksPerPage()
	aes := sim.Cycle(b.ctx.Cfg.Security.AESLatency) +
		sim.Cycle(uint64(g.SectorsPerPage()/b.ctx.Cfg.Memory.DeviceChannels))
	j := b.ctx.newOp(done).withTail(aes)
	j.start(parts)

	b.ctx.Ops.ReEncryptions += uint64(g.SectorsPerPage())
	b.ctx.Ops.Decryptions += uint64(g.SectorsPerPage())
	b.ctx.Ops.Encryptions += uint64(g.SectorsPerPage())
	b.ctx.Ops.MACVerifies += uint64(g.SectorsPerPage())

	// CXL side: bulk counter + MAC reads, with a freshness walk per
	// counter sector.
	b.ctx.CXL.Access(uint64(nCtr*32), stats.Counter, j)
	b.ctx.CXL.Access(uint64(nMAC*32), stats.MAC, j)
	for i := 0; i < nCtr; i++ {
		leaf := int(pageBase/b.ctrCoverage()) + i
		b.ctx.Ops.BMTVerifies++
		b.cxlTree.Verify(leaf, j)
	}
	// Device side: per chunk (one per channel), write the fresh counter
	// group and MAC sectors and refresh the tree.
	for c := 0; c < g.ChunksPerPage(); c++ {
		devAddr := DevAddr(frameBase + uint64(c*g.ChunkSize))
		ch, _, ctrLeaf, _ := b.devMeta(devAddr)
		b.ctx.Device.AccessChannel(ch, 32, stats.Counter, j)
		b.ctx.Device.AccessChannel(ch, uint64(g.BlocksPerChunk())*32, stats.MAC, j)
		b.ctx.Ops.BMTUpdates++
		b.devTrees[ch].Update(ctrLeaf, j)
	}
}

// OnChunkFill implements Engine: the chunk-proportional slice of the
// migration security work — read + verify the chunk's CXL counter sector
// and MAC sectors, decrypt, re-encrypt under device counters, write the
// device-side metadata, refresh the trees.
func (b *Baseline) OnChunkFill(homePage, frame, chunk int, done sim.Handler) {
	if b.SkipRelocationWork {
		fire(done)
		return
	}
	g := b.ctx.Cfg.Geometry
	chunkHome := uint64(homePage*g.PageSize + chunk*g.ChunkSize)
	devAddr := securemem.FrameAddr(frame, g.PageSize, uint64(chunk*g.ChunkSize))
	ch, _, ctrLeaf, _ := b.devMeta(devAddr)

	parts := 5 // CXL ctr + CXL MAC + CXL tree verify + device writes + device tree
	aes := sim.Cycle(b.ctx.Cfg.Security.AESLatency) + sim.Cycle(uint64(g.SectorsPerChunk()))
	j := b.ctx.newOp(done).withTail(aes)
	j.start(parts)

	b.ctx.Ops.ReEncryptions += uint64(g.SectorsPerChunk())
	b.ctx.Ops.Decryptions += uint64(g.SectorsPerChunk())
	b.ctx.Ops.Encryptions += uint64(g.SectorsPerChunk())
	b.ctx.Ops.MACVerifies += uint64(g.SectorsPerChunk())

	b.ctx.CXL.Access(32, stats.Counter, j)
	b.ctx.CXL.Access(uint64(g.BlocksPerChunk())*32, stats.MAC, j)
	b.ctx.Ops.BMTVerifies++
	b.cxlTree.Verify(int(chunkHome/b.ctrCoverage()), j)
	b.ctx.Device.AccessChannel(ch, 32+uint64(g.BlocksPerChunk())*32, stats.Counter, j)
	b.ctx.Ops.BMTUpdates++
	b.devTrees[ch].Update(ctrLeaf, j)
}

// OnEvict implements Engine. The whole page returns to the CXL tier:
// device-side counters and MACs are read (and freshness-verified), every
// sector is decrypted and re-encrypted under CXL counters, and CXL-side
// counters + MACs are produced with their tree paths refreshed.
func (b *Baseline) OnEvict(homePage, frame int, dirty, present uint64, done sim.Handler) {
	if b.SkipRelocationWork {
		fire(done)
		return
	}
	g := b.ctx.Cfg.Geometry
	pageBase := uint64(homePage) * uint64(g.PageSize)
	frameBase := uint64(frame) * uint64(g.PageSize)

	// Only the chunks actually present move back (all of them under
	// whole-page migration). The metadata bill is proportional: device
	// reads + freshness walks per present chunk, CXL writes + tree
	// refreshes per affected counter sector, AES drain for the moved
	// sectors.
	nPresent := popcount(present)
	if nPresent == 0 {
		fire(done)
		return
	}
	// Distinct CXL counter leaves in chunk order: leaf indices grow with
	// the chunk, so comparing with the last one found dedupes them.
	var leafBuf [64]int
	ctrLeaves := leafBuf[:0]
	for c := 0; c < g.ChunksPerPage(); c++ {
		if present&(1<<uint(c)) == 0 {
			continue
		}
		chunkHome := pageBase + uint64(c*g.ChunkSize)
		ctrLeaves = appendDistinct(ctrLeaves, int(chunkHome/b.ctrCoverage()))
	}
	parts := 3*nPresent + 2 + len(ctrLeaves)
	aes := sim.Cycle(b.ctx.Cfg.Security.AESLatency) +
		sim.Cycle(uint64(nPresent*g.SectorsPerChunk()/b.ctx.Cfg.Memory.DeviceChannels+1))
	j := b.ctx.newOp(done).withTail(aes)
	j.start(parts)

	moved := uint64(nPresent * g.SectorsPerChunk())
	b.ctx.Ops.ReEncryptions += moved
	b.ctx.Ops.Decryptions += moved
	b.ctx.Ops.Encryptions += moved
	b.ctx.Ops.MACVerifies += moved
	b.ctx.Ops.MACComputes += moved

	for c := 0; c < g.ChunksPerPage(); c++ {
		if present&(1<<uint(c)) == 0 {
			continue
		}
		devAddr := DevAddr(frameBase + uint64(c*g.ChunkSize))
		ch, _, ctrLeaf, _ := b.devMeta(devAddr)
		b.ctx.Device.AccessChannel(ch, 32, stats.Counter, j)
		b.ctx.Device.AccessChannel(ch, uint64(g.BlocksPerChunk())*32, stats.MAC, j)
		b.ctx.Ops.BMTVerifies++
		b.devTrees[ch].Verify(ctrLeaf, j)
	}
	b.ctx.CXL.Access(uint64(len(ctrLeaves)*32), stats.Counter, j)
	b.ctx.CXL.Access(uint64(nPresent*g.BlocksPerChunk()*32), stats.MAC, j)
	for _, leaf := range ctrLeaves {
		b.ctx.Ops.BMTUpdates++
		b.cxlTree.Update(leaf, j)
	}
}

// CacheHitRates reports aggregate metadata-cache sector hit rates, keyed
// by cache class and side.
func (b *Baseline) CacheHitRates() map[string]float64 {
	out := map[string]float64{}
	agg := func(caches []*metaCache) cache.Stats {
		var sum cache.Stats
		for _, c := range caches {
			st := c.Stats()
			sum.SectorHits += st.SectorHits
			sum.SectorMisses += st.SectorMisses
		}
		return sum
	}
	out["device.counter"] = hitRate(agg(b.ctrCaches))
	out["device.mac"] = hitRate(agg(b.macCaches))
	if len(b.devTrees) > 0 {
		out["device.bmt"] = hitRate(agg([]*metaCache{b.devTrees[0].cache}))
	}
	out["cxl.bmt"] = hitRate(b.cxlTree.cache.Stats())
	return out
}
