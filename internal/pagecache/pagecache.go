// Package pagecache models the GPU device memory as a page cache of the
// CXL-expansion memory, the organisation the paper assumes (§III-B): pages
// migrate in on demand, a background evictor keeps free frames available,
// and per-chunk touched/dirty bitmasks feed fetch-on-access and
// fine-grained dirty tracking.
//
// The page cache owns data movement (page copies and writebacks); the
// attached security engine owns all metadata movement and decides whether
// writebacks are page- or chunk-granular.
package pagecache

import (
	"fmt"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/cxlmem"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/memreq"
	"github.com/salus-sim/salus/internal/secsim"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

type frameStatus int

const (
	frameFree frameStatus = iota
	frameFilling
	frameResident
	frameEvicting
)

type frameState struct {
	status   frameStatus
	homePage int
	lru      uint64
	dirty    uint64 // per-chunk dirty mask
	touched  uint64 // per-chunk touched mask
	present  uint64 // per-chunk filled mask (all chunks under whole-page mode)
	pins     int    // in-flight demand chunk fills; a pinned frame is not evictable
}

// Mode selects the migration granularity.
type Mode int

const (
	// WholePage copies the full 4 KiB page on a fault, the paper's default
	// assumption.
	WholePage Mode = iota
	// Predictive copies only the faulting chunk plus the chunks the page's
	// previous residency touched (a footprint-style predictor); other
	// chunks fill on demand. The paper notes its security design works
	// with either scheme (§IV-A3).
	Predictive
)

// PageCache manages the device tier as a cache of the home space.
type PageCache struct {
	eng    *sim.Engine
	geo    config.Geometry
	device *dram.Memory
	cxl    *cxlmem.Memory
	sec    secsim.Engine
	ops    *stats.Ops

	frames      []frameState
	pageToFrame []int
	lruClock    uint64

	// pageWaiters holds, per home page, the requests awaiting an
	// in-flight fill.
	pageWaiters []memreq.Queue
	// chunkWaiters holds requests blocked on an in-flight chunk fill,
	// keyed by frame*chunksPerPage+chunk.
	chunkWaiters map[int]memreq.Queue
	// frameWaiters holds fills blocked on a free frame.
	frameWaiters   sim.Queue[*fill]
	freeFrames     []int
	lowWater       int
	inFlightEvicts int

	mode    Mode
	history map[int]uint64 // homePage -> touched mask of previous residency

	// lnk, when set, models the CXL transport as a degradable resource:
	// every link transfer consults it first. A refused transfer retries
	// after linkRetryCycles; a brownout surcharge is charged to the event
	// clock before the access issues.
	lnk *link.Link

	// evictNotifier, when set, is told about each page leaving the device
	// tier (the interconnect uses it for directed mapping invalidation).
	evictNotifier func(homePage int)

	fills      sim.Pool[fill]
	evicts     sim.Pool[evict]
	chunkFills sim.Pool[chunkFill]
	finishFn   memreq.Cont // continuation, bound once
}

// New builds a page cache with the given number of device frames over a
// home space of totalPages.
func New(eng *sim.Engine, geo config.Geometry, device *dram.Memory, cxl *cxlmem.Memory,
	sec secsim.Engine, ops *stats.Ops, totalPages, frames int) (*PageCache, error) {
	if frames <= 0 || totalPages <= 0 {
		return nil, fmt.Errorf("pagecache: need positive sizes, got frames=%d totalPages=%d", frames, totalPages)
	}
	if geo.ChunksPerPage() > 64 {
		return nil, fmt.Errorf("pagecache: %d chunks per page exceeds the 64-bit mask", geo.ChunksPerPage())
	}
	pc := &PageCache{
		eng:          eng,
		geo:          geo,
		device:       device,
		cxl:          cxl,
		sec:          sec,
		ops:          ops,
		frames:       make([]frameState, frames),
		pageToFrame:  make([]int, totalPages),
		pageWaiters:  make([]memreq.Queue, totalPages),
		chunkWaiters: make(map[int]memreq.Queue),
		lowWater:     2,
		history:      make(map[int]uint64),
	}
	pc.finishFn = pc.finish
	if pc.lowWater > frames/2 {
		pc.lowWater = 1
	}
	for i := range pc.pageToFrame {
		pc.pageToFrame[i] = -1
	}
	for i := frames - 1; i >= 0; i-- {
		pc.frames[i].homePage = -1
		pc.freeFrames = append(pc.freeFrames, i)
	}
	return pc, nil
}

// SetMode selects whole-page or predictive partial migration. Call before
// simulation starts.
func (pc *PageCache) SetMode(m Mode) { pc.mode = m }

// SetEvictNotifier registers a callback run at the start of every page
// eviction (used for directed mapping-cache invalidation).
func (pc *PageCache) SetEvictNotifier(fn func(homePage int)) { pc.evictNotifier = fn }

// SetLink arms the page cache with a CXL link model. Call before
// simulation starts.
func (pc *PageCache) SetLink(l *link.Link) { pc.lnk = l }

// linkRetryCycles is the pause between retries of a link-refused transfer.
// The performance simulator cannot fail an in-flight migration the way the
// functional model does (callers hold no error path), so a refused
// transfer parks on the event queue and retries — the outage shows up as
// migration latency plus the link counters, not as a lost access.
const linkRetryCycles = 64

// cxlTransfer issues one data transfer over the CXL link, consulting the
// link model first when one is attached. Refusals reschedule the whole
// transfer; a degraded link charges its latency surcharge to the event
// clock before the memory access issues.
func (pc *PageCache) cxlTransfer(bytes uint64, class stats.Class, done sim.Handler) {
	if pc.lnk == nil {
		pc.cxl.Access(bytes, class, done)
		return
	}
	lat, err := pc.lnk.Transfer()
	pc.syncLinkStats()
	if err != nil {
		pc.eng.After(linkRetryCycles, func() { pc.cxlTransfer(bytes, class, done) })
		return
	}
	if lat > 0 {
		pc.eng.After(lat, func() { pc.cxl.Access(bytes, class, done) })
		return
	}
	pc.cxl.Access(bytes, class, done)
}

// syncLinkStats mirrors the link's counters into the run's op stats.
func (pc *PageCache) syncLinkStats() {
	st := pc.lnk.Stats()
	pc.ops.LinkFlaps = st.Flaps
	pc.ops.LinkDownRefusals = st.DownRefusals
	pc.ops.LinkFastFails = st.FastFails
	pc.ops.BreakerOpens = st.BreakerOpens
	pc.ops.BreakerCloses = st.BreakerCloses
	pc.ops.LinkLatencyCycles = uint64(st.ExtraLatencyCycles)
}

// Frames returns the device-tier capacity in frames.
func (pc *PageCache) Frames() int { return len(pc.frames) }

// Resident reports whether a home page is currently resident (and usable).
func (pc *PageCache) Resident(homePage int) bool {
	fi := pc.pageToFrame[homePage]
	return fi >= 0 && pc.frames[fi].status == frameResident
}

// Access routes one data access: it guarantees the page of r.Home is
// resident, marks the touched/dirty masks, sets r.Dev to the device
// address of the access and fires r. The firing may be immediate (page
// already resident) or deferred behind a page fill.
func (pc *PageCache) Access(r *memreq.Request) {
	page := r.Home.Page(pc.geo.PageSize)
	if page >= len(pc.pageToFrame) {
		panic(fmt.Sprintf("pagecache: access to page %d beyond home space", page))
	}
	switch fi := pc.pageToFrame[page]; {
	case fi >= 0 && pc.frames[fi].status == frameResident:
		r.Frame = fi
		pc.complete(r)
	case fi >= 0 || fi == fillPending:
		// A fill is already in flight (with or without a frame assigned).
		pc.pageWaiters[page].Push(r)
	default:
		pc.pageWaiters[page].Push(r)
		pc.fault(page)
	}
}

// complete serves a request whose page is resident in frame r.Frame.
func (pc *PageCache) complete(r *memreq.Request) {
	f := &pc.frames[r.Frame]
	pc.lruClock++
	f.lru = pc.lruClock
	chunk := pc.chunkOf(r)
	if f.present&(1<<uint(chunk)) != 0 {
		pc.finish(r)
		return
	}
	// Predictive mode: the chunk was not part of the prefetched
	// footprint — fill it on demand.
	r.Push(pc.finishFn)
	pc.fillChunk(r.Frame, r.Home.Page(pc.geo.PageSize), chunk, r)
}

// finish marks the access in its frame and returns the request.
func (pc *PageCache) finish(r *memreq.Request) {
	f := &pc.frames[r.Frame]
	// The frame may have been evicted (and even re-targeted) while a
	// demand chunk fill was in flight; marking bits on the new occupant
	// would corrupt its state, so refault.
	if f.homePage != r.Home.Page(pc.geo.PageSize) || f.status != frameResident {
		pc.Access(r)
		return
	}
	chunk := pc.chunkOf(r)
	f.touched |= 1 << uint(chunk)
	if r.Write {
		f.dirty |= 1 << uint(chunk)
	}
	r.Dev = securemem.FrameAddr(r.Frame, pc.geo.PageSize, r.Home.PageOffset(pc.geo.PageSize))
	r.Fire()
}

func (pc *PageCache) chunkOf(r *memreq.Request) int {
	return int(r.Home.PageOffset(pc.geo.PageSize)) / pc.geo.ChunkSize
}

// fillPending marks a page whose fill has been requested but not yet
// assigned a frame.
const fillPending = -2

// fill is one page migration in flight. The data movement (the footprint
// over the CXL link, chunks landing on their interleaved device channels)
// and the security work proceed in parallel; the fill completes when both
// have.
type fill struct {
	pc          *PageCache
	page, frame int
	mask        uint64
	nChunks     int
	pending     int // data movement + security work
	secLeft     int // predictive per-chunk security work outstanding
	dataLeft    int // chunk writes into device channels outstanding
}

// Fire records the data movement's or the security work's completion.
func (f *fill) Fire() {
	f.pending--
	if f.pending == 0 {
		pc, page, frame := f.pc, f.page, f.frame
		pc.fills.Put(f)
		pc.fillComplete(page, frame)
	}
}

// fillSec is a fill's per-chunk security work arriving.
type fillSec fill

func (s *fillSec) Fire() {
	s.secLeft--
	if s.secLeft == 0 {
		(*fill)(s).Fire()
	}
}

// fillXfer is a fill's link transfer arriving: the chunks land in their
// device channels.
type fillXfer fill

func (x *fillXfer) Fire() {
	f := (*fill)(x)
	pc := f.pc
	f.dataLeft = f.nChunks
	for c := 0; c < pc.geo.ChunksPerPage(); c++ {
		if f.mask&(1<<uint(c)) == 0 {
			continue
		}
		devAddr := uint64(f.frame*pc.geo.PageSize + c*pc.geo.ChunkSize)
		pc.device.Access(devAddr, uint64(pc.geo.ChunkSize), stats.Data, (*fillData)(f))
	}
}

// fillData is one chunk write of a fill arriving.
type fillData fill

func (d *fillData) Fire() {
	d.dataLeft--
	if d.dataLeft == 0 {
		(*fill)(d).Fire()
	}
}

// fault initiates the migration of a home page into some frame.
func (pc *PageCache) fault(page int) {
	pc.pageToFrame[page] = fillPending
	f := pc.fills.Get()
	f.pc, f.page = pc, page
	pc.withFreeFrame(f)
	pc.maintainFreeSpace()
}

// startFill begins a fill that has been given its frame.
func (pc *PageCache) startFill(fl *fill) {
	page, frame := fl.page, fl.frame
	f := &pc.frames[frame]
	f.status = frameFilling
	f.homePage = page
	f.dirty, f.touched, f.present = 0, 0, 0
	pc.pageToFrame[page] = frame
	pc.ops.PagesMigratedIn++

	// Choose the fill footprint: the whole page, or (predictive mode)
	// the chunks the page's previous residency touched. A first-time
	// page has no history and prefetches nothing; the faulting access
	// fills its chunk on demand after the fill completes.
	fillMask := uint64(1)<<uint(pc.geo.ChunksPerPage()) - 1
	if pc.mode == Predictive {
		fillMask = pc.history[page]
	}
	f.present = fillMask
	nChunks := popcount(fillMask)
	pc.ops.ChunksMigrated += uint64(nChunks)
	fl.mask, fl.nChunks = fillMask, nChunks

	fl.pending = 2
	if pc.mode == Predictive {
		// Chunk-proportional security work.
		fl.secLeft = nChunks
		if nChunks == 0 {
			fl.Fire()
		} else {
			for c := 0; c < pc.geo.ChunksPerPage(); c++ {
				if fillMask&(1<<uint(c)) == 0 {
					continue
				}
				pc.sec.OnChunkFill(page, frame, c, (*fillSec)(fl))
			}
		}
	} else {
		pc.sec.OnMigrateIn(page, frame, fl)
	}
	if nChunks == 0 {
		fl.Fire()
		return
	}
	pc.cxlTransfer(uint64(nChunks*pc.geo.ChunkSize), stats.Data, (*fillXfer)(fl))
}

func (pc *PageCache) fillComplete(page, frame int) {
	pc.frames[frame].status = frameResident
	// Detach the waiter list first: a waiter that refaults this page
	// queues behind the next fill, not this one.
	waiters := pc.pageWaiters[page]
	pc.pageWaiters[page] = memreq.Queue{}
	for r := waiters.Pop(); r != nil; r = waiters.Pop() {
		r.Frame = frame
		pc.complete(r)
	}
	// Fills queued behind a frame shortage can only be unblocked by an
	// eviction, and this frame just became evictable: re-kick the evictor.
	if pc.frameWaiters.Len() > 0 {
		pc.maintainFreeSpace()
	}
}

// withFreeFrame starts fl in a free frame, now or when one frees up.
func (pc *PageCache) withFreeFrame(fl *fill) {
	if n := len(pc.freeFrames); n > 0 {
		fl.frame = pc.freeFrames[n-1]
		pc.freeFrames = pc.freeFrames[:n-1]
		pc.startFill(fl)
		return
	}
	pc.frameWaiters.Push(fl)
	pc.maintainFreeSpace()
}

// maintainFreeSpace runs the background evictor: keep at least lowWater
// frames free (or becoming free), as the paper's mapping discussion
// assumes ("evictions from the GPU memory may occur in the background").
func (pc *PageCache) maintainFreeSpace() {
	for len(pc.freeFrames)+pc.inFlightEvicts < pc.lowWater+pc.frameWaiters.Len() {
		victim := pc.lruResident()
		if victim < 0 {
			return
		}
		pc.startEvict(victim)
	}
}

func (pc *PageCache) lruResident() int {
	best := -1
	for i := range pc.frames {
		if pc.frames[i].status != frameResident || pc.frames[i].pins > 0 {
			continue
		}
		if best < 0 || pc.frames[i].lru < pc.frames[best].lru {
			best = i
		}
	}
	return best
}

// evict is one frame writeback in flight. The data writeback and the
// model's eviction security work overlap; the frame frees when both
// complete.
type evict struct {
	pc       *PageCache
	frame    int
	nChunks  int
	pending  int // data writeback + security work
	dataLeft int // chunk reads out of device channels outstanding
}

func (e *evict) Fire() {
	e.pending--
	if e.pending == 0 {
		pc, frame := e.pc, e.frame
		pc.evicts.Put(e)
		pc.inFlightEvicts--
		pc.frameFreed(frame)
	}
}

// evictData is one chunk read of an eviction arriving; the last one sends
// the aggregated transfer over the CXL link.
type evictData evict

func (d *evictData) Fire() {
	d.dataLeft--
	if d.dataLeft == 0 {
		d.pc.cxlTransfer(uint64(d.nChunks*d.pc.geo.ChunkSize), stats.Data, (*evict)(d))
	}
}

// startEvict writes a frame's data back per the security model's
// writeback policy and frees the frame.
func (pc *PageCache) startEvict(frame int) {
	f := &pc.frames[frame]
	page := f.homePage
	f.status = frameEvicting
	pc.inFlightEvicts++
	pc.ops.PagesEvicted++
	pc.pageToFrame[page] = -1 // accesses from now on refault
	if pc.evictNotifier != nil {
		pc.evictNotifier(page)
	}

	// Record the touched footprint for the predictor before the frame is
	// recycled.
	pc.history[page] = f.touched

	writeMask := f.present
	if pc.sec.FineGrainedWriteback() {
		writeMask = f.dirty
	}
	nChunks := popcount(writeMask)
	pc.ops.ChunksWrittenBack += uint64(nChunks)

	ev := pc.evicts.Get()
	ev.pc, ev.frame, ev.nChunks, ev.pending, ev.dataLeft = pc, frame, nChunks, 2, nChunks
	pc.sec.OnEvict(page, frame, f.dirty, f.present, ev)
	if nChunks == 0 {
		ev.Fire()
		return
	}
	// Data movement: read the chunks from their device channels, then one
	// aggregated transfer over the CXL link.
	for c := 0; c < pc.geo.ChunksPerPage(); c++ {
		if writeMask&(1<<uint(c)) == 0 {
			continue
		}
		devAddr := uint64(frame*pc.geo.PageSize + c*pc.geo.ChunkSize)
		pc.device.Access(devAddr, uint64(pc.geo.ChunkSize), stats.Data, (*evictData)(ev))
	}
}

func (pc *PageCache) frameFreed(frame int) {
	f := &pc.frames[frame]
	f.status = frameFree
	f.homePage = -1
	f.dirty, f.touched, f.present, f.pins = 0, 0, 0, 0
	if pc.frameWaiters.Len() > 0 {
		fl := pc.frameWaiters.Pop()
		fl.frame = frame
		pc.startFill(fl)
		if pc.frameWaiters.Len() > 0 {
			pc.maintainFreeSpace()
		}
		return
	}
	pc.freeFrames = append(pc.freeFrames, frame)
}

// DirtyMask returns the dirty chunk mask of a resident page (0 otherwise);
// used by tests.
func (pc *PageCache) DirtyMask(homePage int) uint64 {
	fi := pc.pageToFrame[homePage]
	if fi < 0 {
		return 0
	}
	return pc.frames[fi].dirty
}

// chunkFill is one demand chunk fill in flight (predictive mode): data
// over the link and into the device channel, plus the chunk-proportional
// security work.
type chunkFill struct {
	pc           *PageCache
	frame, chunk int
	key          int
	pending      int
}

func (cf *chunkFill) Fire() {
	cf.pending--
	if cf.pending != 0 {
		return
	}
	pc, frame, chunk, key := cf.pc, cf.frame, cf.chunk, cf.key
	pc.chunkFills.Put(cf)
	f := &pc.frames[frame]
	f.pins--
	f.present |= 1 << uint(chunk)
	waiters := pc.chunkWaiters[key]
	delete(pc.chunkWaiters, key)
	for r := waiters.Pop(); r != nil; r = waiters.Pop() {
		r.Fire()
	}
	// An eviction may have been waiting for the pin to drop.
	if f.pins == 0 && pc.frameWaiters.Len() > 0 {
		pc.maintainFreeSpace()
	}
}

// chunkFillXfer is a chunk fill's link transfer arriving.
type chunkFillXfer chunkFill

func (x *chunkFillXfer) Fire() {
	cf := (*chunkFill)(x)
	pc := cf.pc
	devAddr := uint64(cf.frame*pc.geo.PageSize + cf.chunk*pc.geo.ChunkSize)
	pc.device.Access(devAddr, uint64(pc.geo.ChunkSize), stats.Data, cf)
}

// fillChunk fills one chunk on demand (predictive mode): data over the
// link plus the chunk-proportional security work. Concurrent accesses to
// the same in-flight chunk merge; r fires when the chunk is present.
func (pc *PageCache) fillChunk(frame, page, chunk int, r *memreq.Request) {
	key := frame*pc.geo.ChunksPerPage() + chunk
	waiters, inFlight := pc.chunkWaiters[key]
	waiters.Push(r)
	pc.chunkWaiters[key] = waiters
	if inFlight {
		return
	}
	pc.ops.ChunksMigrated++
	// Pin the frame so the evictor cannot recycle it while the fill is in
	// flight; otherwise waiters would complete against a stale mapping.
	pc.frames[frame].pins++

	cf := pc.chunkFills.Get()
	cf.pc, cf.frame, cf.chunk, cf.key, cf.pending = pc, frame, chunk, key, 2
	pc.cxlTransfer(uint64(pc.geo.ChunkSize), stats.Data, (*chunkFillXfer)(cf))
	pc.sec.OnChunkFill(page, frame, chunk, cf)
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
