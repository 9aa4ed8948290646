// Package securemem is the functional core of the Salus reproduction: a
// two-tier (GPU-device + CXL-expansion) protected memory with transparent
// page migration, implemented with real cryptography.
//
// Both tiers are untrusted: data is stored as counter-mode ciphertext,
// every sector carries a truncated keyed MAC, and counter blocks are
// covered by per-tier Bonsai Merkle Trees whose roots are TCB state. Three
// protection models are selectable:
//
//   - ModelNone: no protection (the paper's normalisation baseline).
//   - ModelConventional: metadata bound to the *physical* location, as in
//     prior GPU security work — every page migration decrypts with the
//     source tier's metadata and re-encrypts with the destination's.
//   - ModelSalus: the paper's unified model — security computations always
//     use the CXL (home) address, ciphertext migrates verbatim, MAC sectors
//     carry the collapsed major counter and are fetched on first access,
//     and only dirty chunks are written back on eviction.
//
// The operation counters exposed by Stats let callers observe the paper's
// central claims directly (e.g. zero relocation re-encryptions under
// Salus).
package securemem

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/security/bmt"
	"github.com/salus-sim/salus/internal/security/counters"
	"github.com/salus-sim/salus/internal/security/cryptoeng"
	"github.com/salus-sim/salus/internal/security/maclib"
	"github.com/salus-sim/salus/internal/sim"
)

// Model selects the protection scheme.
type Model int

const (
	// ModelNone stores plaintext with no metadata.
	ModelNone Model = iota
	// ModelConventional binds metadata to physical locations.
	ModelConventional
	// ModelSalus is the paper's relocation-friendly unified model.
	ModelSalus
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case ModelNone:
		return "none"
	case ModelConventional:
		return "conventional"
	case ModelSalus:
		return "salus"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Sentinel errors. Integrity and freshness failures indicate an attack (or
// corruption) was detected; they are returned, never masked.
var (
	ErrOutOfRange = errors.New("securemem: address out of range")
	ErrIntegrity  = errors.New("securemem: MAC verification failed (tampered or spliced data)")
	ErrFreshness  = errors.New("securemem: integrity tree verification failed (replayed metadata)")
	// ErrGeometry reports a configuration whose geometry is incompatible
	// with the crypto engine (today: a SectorSize other than the engine's
	// fixed cryptoeng.SectorSize, which the sector-granular access paths
	// hardcode).
	ErrGeometry = errors.New("securemem: geometry incompatible with crypto engine")
)

// Config sizes a System.
type Config struct {
	Geometry    config.Geometry
	Model       Model
	TotalPages  int // size of the CXL (home) address space, in pages
	DevicePages int // device-tier capacity, in pages
	AESKey      []byte
	MACKey      []byte

	// Shards selects the page-partition count used by NewConcurrent for
	// parallel access (see shard.go). Zero selects DefaultShards; the
	// count is clamped so every shard owns at least one device frame.
	// Plain New ignores it: a bare System is always single-threaded.
	Shards int

	// Backing, when non-nil, supplies externally owned storage for both
	// tiers instead of letting New allocate them — the mechanism by
	// which per-tenant engines share one physical pool (see backing.go).
	// Slice lengths must match TotalPages/DevicePages under Geometry.
	Backing *Backing
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch {
	case c.Geometry.SectorSize != cryptoeng.SectorSize:
		return fmt.Errorf("%w: sector size must be %d bytes, have %d",
			ErrGeometry, cryptoeng.SectorSize, c.Geometry.SectorSize)
	case c.Shards < 0:
		return errors.New("securemem: Shards must be non-negative")
	case c.TotalPages <= 0:
		return errors.New("securemem: TotalPages must be positive")
	case c.DevicePages <= 0:
		return errors.New("securemem: DevicePages must be positive")
	case c.DevicePages > c.TotalPages:
		return errors.New("securemem: device tier larger than home space")
	}
	return c.validateBacking()
}

// OpStats counts the operations the paper's analysis cares about.
type OpStats struct {
	Reads  uint64
	Writes uint64

	PageMigrationsIn uint64 // CXL -> device page copies
	PageEvictions    uint64 // device -> CXL

	// RelocationReEncryptions counts sectors decrypted+re-encrypted purely
	// because data changed physical location. Salus's headline property is
	// that this stays zero on migration-in and is limited to one collapse
	// pass per dirty chunk on eviction.
	RelocationReEncryptions uint64
	CollapseReEncryptions   uint64 // sectors re-encrypted by counter collapse
	OverflowReEncryptions   uint64 // sectors re-encrypted by minor-counter overflow

	LazyMACFetches       uint64 // MAC sectors fetched on first access (Salus)
	DirtyChunkWritebacks uint64
	CleanChunksSkipped   uint64 // chunks not written back thanks to dirty tracking
	FullPageWritebacks   uint64 // conventional model page-granularity writebacks

	MACVerifies uint64
	BMTVerifies uint64
	BMTUpdates  uint64

	KeyRotations uint64 // completed ReKey sweeps

	// Hardware fault accounting (populated only when a fault.Injector is
	// attached). All fields are monotone uint64s like the rest of OpStats.
	TransientFaults       uint64 // link faults observed (including each burst attempt)
	PoisonFaults          uint64 // uncorrectable media faults observed
	StuckBitFaults        uint64 // stuck-at media faults observed
	Retries               uint64 // transient-fault retries issued
	RetryBackoffCycles    uint64 // simulated cycles spent in retry backoff
	TransparentRecoveries uint64 // device faults survived with no data loss
	FramesQuarantined     uint64 // device frames retired
	ChunksPoisoned        uint64 // home chunks quarantined (data lost)
	PagesPinned           uint64 // pages degraded to home-tier direct access
	PoisonPageDrops       uint64 // resident pages unmapped by a frame quarantine
	// PoisonSkippedRelocations counts sectors the conventional model's
	// migration/eviction sweeps skipped because their home chunk is
	// quarantined; together with RelocationReEncryptions it keeps the
	// per-page sector accounting exact under faults.
	PoisonSkippedRelocations uint64

	// CXL link degradation accounting (populated only when a link.Link is
	// attached; see link.go). The first block mirrors the link's own
	// counters; the second tracks the dirty-writeback queue. All fields
	// are monotone, including the queue high-water mark.
	LinkFlaps             uint64 // observed link-state transitions
	LinkDownRefusals      uint64 // home transfers the link refused
	LinkFastFails         uint64 // home transfers the open breaker fast-failed
	BreakerOpens          uint64 // closed/half-open -> open transitions
	BreakerCloses         uint64 // open/half-open -> closed transitions
	BreakerProbes         uint64 // half-open probe admissions
	LinkDegradedTransfers uint64 // transfers that paid a brownout surcharge
	LinkLatencyCycles     uint64 // total brownout cycles charged
	WritebacksQueued      uint64 // evictions parked on the writeback queue
	WritebacksDrained     uint64 // parked writebacks completed on recovery
	WritebacksDropped     uint64 // parks refused by a full queue (ErrQueueFull)
	WritebackQueuePeak    uint64 // queue high-water mark

	// Incremental checkpoint accounting (see checkpoint.go). A checkpoint
	// journals exactly one page record per dirty page, so
	// CheckpointPages is also the journal record count net of commits.
	Checkpoints          uint64 // committed checkpoint epochs
	CheckpointPages      uint64 // page records journaled
	CheckpointWritebacks uint64 // dirty resident chunks collapsed home by checkpoints
	CheckpointBytes      uint64 // journal bytes written (records + commits)
	CheckpointCycles     uint64 // simulated cycles charged to checkpointing
}

// frame describes one device-tier page frame.
type frame struct {
	homePage    int // index of the resident page, -1 when free
	lru         uint64
	dirty       uint64 // per-chunk dirty bitmask (fine-grained tracking)
	macIn       uint64 // per-block mask: MAC sector fetched (Salus fetch-on-access)
	ctrIn       uint64 // per-chunk mask: device counter group initialised
	quarantined bool   // retired after an uncorrectable media fault
	parked      bool   // eviction deferred to the dirty-writeback queue (link outage)
}

// System is a two-tier protected memory.
type System struct {
	cfg Config
	geo config.Geometry
	eng *cryptoeng.Engine

	cxlData []byte // home-tier store (ciphertext, or plaintext for ModelNone)
	devData []byte // device-tier store

	frames    []frame
	pageTable []int // home page -> frame index, -1 if not resident
	lruClock  uint64

	// Salus metadata (home-indexed).
	macSectors []maclib.Sector            // one per home 128 B block
	collapsed  []counters.CollapsedSector // one per 8 home chunks
	cxlTree    *bmt.Tree                  // over collapsed sectors
	devGroups  []counters.IFGroup         // one per device-frame chunk
	devTree    *bmt.Tree                  // over device IF counter sectors
	cxlSplit   []counters.CXLSplitSector  // Fig. 6 state, allocated on first WriteThrough
	splitDirty []bool                     // chunks currently in split state
	splitTree  *bmt.Tree                  // freshness over split sectors (one leaf per chunk)

	// Conventional metadata (location-indexed, one set per tier).
	convCXLCtrs []counters.ConventionalSector // per 1 KiB of home space
	convDevCtrs []counters.ConventionalSector // per 1 KiB of device space
	convCXLMACs []uint64                      // per home sector
	convDevMACs []uint64                      // per device sector
	convCXLTree *bmt.Tree
	convDevTree *bmt.Tree

	// Sharding state (see shard.go). nShards is 1 for a bare New system;
	// locks guards the cross-shard state, splitArmed publishes the lazy
	// split-state allocation to concurrent shards.
	nShards    int
	locks      sysLocks
	splitArmed atomic.Bool

	// Fault model (see fault.go). inj is nil when no faults are armed.
	// poisoned and pinned are TCB badblock state: they survive
	// Suspend/Resume through the TrustedRoot. Both are indexed slices
	// (never resized after New) with atomic element-count fast paths, so
	// shard-disjoint accesses can consult them without a global lock.
	inj       fault.Injector
	retry     RetryPolicy
	clock     *sim.Engine
	poisoned  []bool // home chunk -> quarantined
	poisonedN uint64 // atomic count of quarantined chunks
	pinned    []bool // home page -> pinned to home-tier access
	pinnedN   uint64 // atomic count of pinned pages

	// Link degradation state (see link.go). lnk is nil when no link model
	// is armed; wbq holds the frame indices of parked dirty writebacks in
	// FIFO drain order.
	lnk    *link.Link
	wbq    []int
	wbqCap int

	// Incremental checkpoint state (ModelSalus, see checkpoint.go): the
	// committed epoch and the per-page dirty map feeding the next epoch.
	epoch     uint64
	ckptDirty []bool

	stats OpStats
}

// trustCacheEntries sizes the trusted-node caches that accelerate
// repeated tree verifications (models the hardware BMT caches).
const trustCacheEntries = 4096

// New builds a System. All pages start zero-filled and resident only in the
// home tier, already encrypted under the initial counters for the secure
// models.
func New(cfg Config) (*System, error) {
	s, err := newSystem(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Backing != nil {
		// Shared backing: the engine's starting-state contract (zero
		// plaintext) requires both tiers zeroed, and a re-created tenant
		// engine inherits whatever its predecessor left behind.
		clear(s.cxlData)
		clear(s.devData)
	}
	if s.cfg.Model == ModelNone {
		return s, nil
	}
	if err := s.writeHome(nil); err != nil {
		return nil, err
	}
	if err := s.buildHomeTrees(); err != nil {
		return nil, err
	}
	// Allocated after writeHome so the deterministic initial state counts
	// as clean: untouched pages need no journal records.
	if s.cfg.Model == ModelSalus {
		s.ckptDirty = make([]bool, s.cfg.TotalPages)
	}
	return s, nil
}

// newSystem validates cfg and allocates a System's structures with every
// counter at zero, without writing a byte of the backing and without the
// home trees: New encrypts the home tier and then builds them, while the
// restore paths (Recover, Resume) first decode untrusted metadata into
// the counters, build and verify the trees, and only then write the
// backing (see restore).
func newSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.AESKey == nil {
		cfg.AESKey = []byte("salus-default-k!")
	}
	if cfg.MACKey == nil {
		cfg.MACKey = []byte("salus-default-mac-key")
	}
	eng, err := cryptoeng.New(cfg.AESKey, cfg.MACKey, maclib.MACBits)
	if err != nil {
		return nil, err
	}
	g := cfg.Geometry
	var cxlData, devData []byte
	if cfg.Backing != nil {
		cxlData, devData = cfg.Backing.Home, cfg.Backing.Device
	} else {
		cxlData = make([]byte, cfg.TotalPages*g.PageSize)
		devData = make([]byte, cfg.DevicePages*g.PageSize)
	}
	s := &System{
		cfg:       cfg,
		geo:       g,
		eng:       eng,
		nShards:   1,
		cxlData:   cxlData,
		devData:   devData,
		frames:    make([]frame, cfg.DevicePages),
		pageTable: make([]int, cfg.TotalPages),
		poisoned:  make([]bool, cfg.TotalPages*g.ChunksPerPage()),
		pinned:    make([]bool, cfg.TotalPages),
	}
	for i := range s.frames {
		s.frames[i].homePage = -1
	}
	for i := range s.pageTable {
		s.pageTable[i] = -1
	}
	switch cfg.Model {
	case ModelNone:
		// Plaintext; nothing else to set up.
	case ModelSalus:
		homeBlocks := cfg.TotalPages * g.BlocksPerPage()
		homeChunks := cfg.TotalPages * g.ChunksPerPage()
		s.macSectors = make([]maclib.Sector, homeBlocks)
		s.collapsed = make([]counters.CollapsedSector, (homeChunks+counters.CollapsedMajors-1)/counters.CollapsedMajors)
		devChunks := cfg.DevicePages * g.ChunksPerPage()
		s.devGroups = make([]counters.IFGroup, devChunks)
		s.devTree, err = bmt.New(eng, (devChunks+counters.GroupsPerSector-1)/counters.GroupsPerSector)
		if err != nil {
			return nil, err
		}
		s.devTree.SetTrustCache(trustCacheEntries)
	case ModelConventional:
		homeSectors := cfg.TotalPages * g.SectorsPerPage()
		devSectors := cfg.DevicePages * g.SectorsPerPage()
		s.convCXLCtrs = make([]counters.ConventionalSector, (homeSectors+counters.ConvMinors-1)/counters.ConvMinors)
		s.convDevCtrs = make([]counters.ConventionalSector, (devSectors+counters.ConvMinors-1)/counters.ConvMinors)
		s.convCXLMACs = make([]uint64, homeSectors)
		s.convDevMACs = make([]uint64, devSectors)
		s.convDevTree, err = bmt.New(eng, len(s.convDevCtrs))
		if err != nil {
			return nil, err
		}
		s.convDevTree.SetTrustCache(trustCacheEntries)
	default:
		return nil, fmt.Errorf("securemem: unknown model %d", cfg.Model)
	}
	return s, nil
}

// writeHome writes every home page of a secure model's backing: the
// ciphertext pages[p] where one is given (a restored page, whose MACs and
// counters were decoded with it), and otherwise the initial state — zero
// plaintext encrypted under the initial (zero) counters, with matching
// MACs, so that the very first read of any sector verifies. The initial
// state is a deterministic function of the keys. Both secure models start
// with every (major, minor) pair at zero, so whole pages encrypt through
// the batch path (one IV encode per run) and the MACs ride a pinned
// Session scratch. New passes nil pages: everything is initial.
func (s *System) writeHome(pages [][]byte) error {
	ss := s.geo.SectorSize
	ps := s.geo.PageSize
	spp := s.geo.SectorsPerPage()
	zero := make([]byte, ps)
	minors := make([]uint64, spp)
	sess := s.eng.NewSession()
	for page := 0; page < s.cfg.TotalPages; page++ {
		base := page * ps
		pg := s.cxlData[base : base+ps]
		if page < len(pages) && pages[page] != nil {
			copy(pg, pages[page])
			continue
		}
		if err := s.eng.EncryptSectors(pg, zero, uint64(base), 0, minors); err != nil {
			return err
		}
		for i := 0; i < spp; i++ {
			addr := HomeAddr(base + i*ss)
			mac, err := sess.MAC(pg[i*ss:(i+1)*ss], uint64(addr), 0, 0)
			if err != nil {
				return err
			}
			if err := s.storeHomeMAC(addr, mac); err != nil {
				return err
			}
		}
	}
	return nil
}

// homeCounterPair returns the current (major, minor) for a home-tier
// sector under the active model.
func (s *System) homeCounterPair(addr HomeAddr) (major, minor uint64) {
	switch s.cfg.Model {
	case ModelSalus:
		chunk := addr.Chunk(s.geo.ChunkSize)
		sector := s.collapsed[chunk/counters.CollapsedMajors]
		return uint64(sector.Majors[chunk%counters.CollapsedMajors]), 0
	case ModelConventional:
		secIdx := addr.Sector(s.geo.SectorSize)
		cs := s.convCXLCtrs[secIdx/counters.ConvMinors]
		return cs.Pair(secIdx % counters.ConvMinors)
	}
	return 0, 0
}

// storeHomeMAC records the MAC of a home-tier sector. Every home data or
// MAC mutation funnels through here, making it (with salusSetHomeMajor)
// the chokepoint for checkpoint dirty-page tracking.
func (s *System) storeHomeMAC(addr HomeAddr, mac uint64) error {
	switch s.cfg.Model {
	case ModelSalus:
		s.markCkptDirty(addr.Page(s.geo.PageSize))
		block := int(addr) / s.geo.BlockSize
		secInBlock := (int(addr) % s.geo.BlockSize) / s.geo.SectorSize
		return s.macSectors[block].SetMAC(secInBlock, mac)
	case ModelConventional:
		s.convCXLMACs[addr.Sector(s.geo.SectorSize)] = mac
	}
	return nil
}

// homeMAC returns the stored MAC of a home-tier sector.
func (s *System) homeMAC(addr HomeAddr) uint64 {
	switch s.cfg.Model {
	case ModelSalus:
		block := int(addr) / s.geo.BlockSize
		secInBlock := (int(addr) % s.geo.BlockSize) / s.geo.SectorSize
		return s.macSectors[block].MACs[secInBlock]
	case ModelConventional:
		return s.convCXLMACs[addr.Sector(s.geo.SectorSize)]
	}
	return 0
}

// buildHomeTrees builds the home-tier integrity trees over the current
// home counters in one pass, replacing any existing ones.
func (s *System) buildHomeTrees() error {
	var err error
	switch s.cfg.Model {
	case ModelSalus:
		leaves := make([][bmt.LeafBytes]byte, len(s.collapsed))
		for i := range s.collapsed {
			leaves[i] = s.collapsed[i].Encode()
		}
		if s.cxlTree, err = bmt.Build(s.eng, leaves); err != nil {
			return err
		}
		s.cxlTree.SetTrustCache(trustCacheEntries)
	case ModelConventional:
		leaves := make([][bmt.LeafBytes]byte, len(s.convCXLCtrs))
		for i := range s.convCXLCtrs {
			leaves[i] = s.convCXLCtrs[i].Encode()
		}
		if s.convCXLTree, err = bmt.Build(s.eng, leaves); err != nil {
			return err
		}
		s.convCXLTree.SetTrustCache(trustCacheEntries)
	}
	return nil
}

// Size returns the home address-space size in bytes.
func (s *System) Size() uint64 { return uint64(len(s.cxlData)) }

// Model returns the active protection model.
func (s *System) Model() Model { return s.cfg.Model }

// Stats returns a copy of the operation counters.
func (s *System) Stats() OpStats {
	s.syncLinkStats()
	return s.stats
}

// ResidentPages returns how many pages currently sit in the device tier.
func (s *System) ResidentPages() int {
	n := 0
	for _, f := range s.frames {
		if f.homePage >= 0 {
			n++
		}
	}
	return n
}

// IsResident reports whether the page containing addr is in the device tier.
func (s *System) IsResident(addr HomeAddr) bool {
	if uint64(addr) >= s.Size() {
		return false
	}
	return s.pageTable[addr.Page(s.geo.PageSize)] >= 0
}
