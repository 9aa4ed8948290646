// Package cache implements the sectored set-associative cache with MSHRs
// used throughout the simulated system: for L2 slices and for the per-
// partition security-metadata caches (counter, MAC, and BMT caches), which
// prior GPU-security work (PSSM) models as sectored caches.
//
// The cache is a state container; timing is the caller's concern. A lookup
// reports which requested sectors hit and which miss, the MSHR file merges
// outstanding misses, and fills may evict a victim whose dirty sectors the
// caller must write back.
package cache

import (
	"errors"
	"fmt"

	"github.com/salus-sim/salus/internal/sim"
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// SectorMask is a bitmask of sectors within a block (bit i = sector i).
type SectorMask uint32

// Has reports whether sector i is set.
func (m SectorMask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Count returns the number of set sectors.
func (m SectorMask) Count() int {
	n := 0
	for x := m; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// MaskAll returns a mask with the low n bits set.
func MaskAll(n int) SectorMask { return SectorMask(1<<uint(n)) - 1 }

// Config sizes a cache.
type Config struct {
	SizeBytes  int // total capacity
	BlockSize  int // bytes per line
	SectorSize int // bytes per sector (SectorSize == BlockSize means unsectored)
	Ways       int // associativity
	MSHRs      int // outstanding misses tracked (0 disables the MSHR file)
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.BlockSize <= 0 || c.SectorSize <= 0 || c.Ways <= 0:
		return errors.New("cache: sizes and ways must be positive")
	case c.BlockSize%c.SectorSize != 0:
		return errors.New("cache: block size must be a multiple of sector size")
	case c.BlockSize/c.SectorSize > 32:
		return errors.New("cache: at most 32 sectors per block")
	case c.SizeBytes%(c.BlockSize*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by block*ways %d", c.SizeBytes, c.BlockSize*c.Ways)
	case c.MSHRs < 0:
		return errors.New("cache: negative MSHR count")
	}
	sets := c.SizeBytes / (c.BlockSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

type line struct {
	tag   Addr
	valid SectorMask
	dirty SectorMask
	extra uint64 // caller-managed tag (e.g. Salus CXL tag); 0 when unused
	lru   uint64
	inUse bool
}

// Victim describes an evicted line.
type Victim struct {
	BlockAddr Addr
	Dirty     SectorMask // sectors needing writeback
	Valid     SectorMask
	Extra     uint64
}

// Stats counts cache activity.
type Stats struct {
	Lookups      uint64
	LineHits     uint64 // lookups where the line was present
	LineMisses   uint64
	SectorHits   uint64 // sectors served from the cache
	SectorMisses uint64 // sectors that needed a fill
	Evictions    uint64
	Writebacks   uint64 // evictions with at least one dirty sector
}

// Cache is a sectored set-associative cache.
type Cache struct {
	cfg        Config
	sets       [][]line
	setMask    Addr
	sectorsPer int
	clock      uint64
	mshrs      map[Addr]*MSHR
	freeMSHRs  []*MSHR // released entries, reused with their waiter storage
	stats      Stats
}

// New builds a cache; it panics on invalid configuration (caller bug).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / (cfg.BlockSize * cfg.Ways)
	c := &Cache{
		cfg:        cfg,
		sets:       make([][]line, sets),
		setMask:    Addr(sets - 1),
		sectorsPer: cfg.BlockSize / cfg.SectorSize,
		mshrs:      make(map[Addr]*MSHR),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c
}

// SectorsPerBlock returns the number of sectors in a line.
func (c *Cache) SectorsPerBlock() int { return c.sectorsPer }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// BlockAddr rounds an address down to its block base.
func (c *Cache) BlockAddr(a Addr) Addr { return a - a%Addr(c.cfg.BlockSize) }

// SectorIndex returns the sector index of an address within its block.
func (c *Cache) SectorIndex(a Addr) int {
	return int(a%Addr(c.cfg.BlockSize)) / c.cfg.SectorSize
}

func (c *Cache) setIndex(block Addr) int {
	return int((block / Addr(c.cfg.BlockSize)) & c.setMask)
}

func (c *Cache) find(block Addr) *line {
	set := c.sets[c.setIndex(block)]
	for i := range set {
		if set[i].inUse && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

// LookupResult reports the outcome of a cache lookup.
type LookupResult struct {
	LinePresent bool
	Hit         SectorMask // requested sectors present
	Miss        SectorMask // requested sectors absent
	Extra       uint64     // extra tag of the line when present
}

// Lookup checks block for the requested sectors and updates LRU and stats.
// It does not allocate; use Fill after fetching missing sectors.
func (c *Cache) Lookup(block Addr, want SectorMask) LookupResult {
	c.stats.Lookups++
	ln := c.find(block)
	if ln == nil {
		c.stats.LineMisses++
		c.stats.SectorMisses += uint64(want.Count())
		return LookupResult{Miss: want}
	}
	c.clock++
	ln.lru = c.clock
	c.stats.LineHits++
	hit := want & ln.valid
	miss := want &^ ln.valid
	c.stats.SectorHits += uint64(hit.Count())
	c.stats.SectorMisses += uint64(miss.Count())
	return LookupResult{LinePresent: true, Hit: hit, Miss: miss, Extra: ln.extra}
}

// Peek reports line state without touching LRU or stats.
func (c *Cache) Peek(block Addr) (valid, dirty SectorMask, extra uint64, present bool) {
	ln := c.find(block)
	if ln == nil {
		return 0, 0, 0, false
	}
	return ln.valid, ln.dirty, ln.extra, true
}

// Fill installs sectors of block, allocating (and possibly evicting) a line.
// extra is stored as the line's caller-managed tag. evicted reports whether
// a valid line was displaced; victim describes it.
func (c *Cache) Fill(block Addr, sectors SectorMask, extra uint64) (victim Victim, evicted bool) {
	if ln := c.find(block); ln != nil {
		ln.valid |= sectors
		ln.extra = extra
		c.clock++
		ln.lru = c.clock
		return Victim{}, false
	}
	set := c.sets[c.setIndex(block)]
	victimIdx := 0
	for i := range set {
		if !set[i].inUse {
			victimIdx = i
			goto install
		}
		if set[i].lru < set[victimIdx].lru {
			victimIdx = i
		}
	}
install:
	v := &set[victimIdx]
	if v.inUse {
		c.stats.Evictions++
		victim, evicted = Victim{BlockAddr: v.tag, Dirty: v.dirty, Valid: v.valid, Extra: v.extra}, true
		if v.dirty != 0 {
			c.stats.Writebacks++
		}
	}
	c.clock++
	*v = line{tag: block, valid: sectors, extra: extra, lru: c.clock, inUse: true}
	return victim, evicted
}

// MarkDirty marks sectors of a present block dirty. It reports whether the
// block (with all the given sectors valid) was present.
func (c *Cache) MarkDirty(block Addr, sectors SectorMask) bool {
	ln := c.find(block)
	if ln == nil || sectors&^ln.valid != 0 {
		return false
	}
	ln.dirty |= sectors
	return true
}

// SetExtra updates the caller-managed tag of a present line.
func (c *Cache) SetExtra(block Addr, extra uint64) bool {
	ln := c.find(block)
	if ln == nil {
		return false
	}
	ln.extra = extra
	return true
}

// Invalidate drops a block, returning its victim record and whether it
// was present.
func (c *Cache) Invalidate(block Addr) (Victim, bool) {
	ln := c.find(block)
	if ln == nil {
		return Victim{}, false
	}
	v := Victim{BlockAddr: ln.tag, Dirty: ln.dirty, Valid: ln.valid, Extra: ln.extra}
	*ln = line{}
	return v, true
}

// FlushDirty returns victim records for every dirty line and marks them
// clean. Used at end-of-run to account for pending writebacks.
func (c *Cache) FlushDirty() []Victim {
	var out []Victim
	for si := range c.sets {
		for wi := range c.sets[si] {
			ln := &c.sets[si][wi]
			if ln.inUse && ln.dirty != 0 {
				out = append(out, Victim{BlockAddr: ln.tag, Dirty: ln.dirty, Valid: ln.valid, Extra: ln.extra})
				ln.dirty = 0
			}
		}
	}
	return out
}

// MSHR tracks one outstanding miss to a block.
type MSHR struct {
	Block   Addr
	Pending SectorMask    // union of requested missing sectors
	Waiters []sim.Handler // fired, in arrival order, when the fill completes
}

// MSHRStatus is the outcome of an MSHR allocation attempt.
type MSHRStatus int

const (
	// MSHRNew means a new entry was allocated; the caller must issue the fetch.
	MSHRNew MSHRStatus = iota
	// MSHRMerged means the miss was merged into an existing entry.
	MSHRMerged
	// MSHRFull means no entry was available; the caller must stall and retry.
	MSHRFull
)

// AllocateMSHR records an outstanding miss for (block, sectors) and
// registers onFill (may be nil) to fire when the fill completes. With MSHRs
// disabled (cfg.MSHRs == 0) every allocation reports MSHRNew and waiters
// still fire on CompleteMSHR.
func (c *Cache) AllocateMSHR(block Addr, sectors SectorMask, onFill sim.Handler) MSHRStatus {
	if m, ok := c.mshrs[block]; ok {
		m.Pending |= sectors
		if onFill != nil {
			m.Waiters = append(m.Waiters, onFill)
		}
		return MSHRMerged
	}
	if c.cfg.MSHRs > 0 && len(c.mshrs) >= c.cfg.MSHRs {
		return MSHRFull
	}
	var m *MSHR
	if n := len(c.freeMSHRs); n > 0 {
		m = c.freeMSHRs[n-1]
		c.freeMSHRs = c.freeMSHRs[:n-1]
	} else {
		m = &MSHR{}
	}
	m.Block, m.Pending = block, sectors
	if onFill != nil {
		m.Waiters = append(m.Waiters, onFill)
	}
	c.mshrs[block] = m
	return MSHRNew
}

// PendingMSHR returns the pending sector mask for a block's MSHR (0 if none).
func (c *Cache) PendingMSHR(block Addr) SectorMask {
	if m, ok := c.mshrs[block]; ok {
		return m.Pending
	}
	return 0
}

// OutstandingMSHRs returns the number of live MSHR entries.
func (c *Cache) OutstandingMSHRs() int { return len(c.mshrs) }

// MSHRCapacity returns the MSHR file size (0 when the file is disabled).
func (c *Cache) MSHRCapacity() int { return c.cfg.MSHRs }

// CompleteMSHR fills the block (allocate-on-fill policy, per Table II),
// releases the MSHR, and fires the waiters. It returns the fill's victim,
// as Fill does.
func (c *Cache) CompleteMSHR(block Addr, extra uint64) (victim Victim, evicted bool) {
	m, ok := c.mshrs[block]
	if !ok {
		return Victim{}, false
	}
	delete(c.mshrs, block)
	victim, evicted = c.Fill(block, m.Pending, extra)
	for _, w := range m.Waiters {
		w.Fire()
	}
	// The entry left the map before its waiters ran, so none of them
	// could reach it; recycle it only now.
	clear(m.Waiters)
	m.Waiters = m.Waiters[:0]
	c.freeMSHRs = append(c.freeMSHRs, m)
	return victim, evicted
}
