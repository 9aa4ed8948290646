// Package trace generates synthetic GPU memory-access streams standing in
// for the paper's CUDA benchmarks (Rodinia, Parboil, LonestarGPU, Pannotia).
//
// The security-relevant behaviour of a workload in a CXL-expanded GPU is
// captured by a handful of parameters the paper itself uses to explain its
// results (§V-B1): the footprint (how often pages migrate for a given
// device-memory ratio), how many of a page's interleaving chunks are touched
// while the page is resident (NW/B+tree/Lava touch under half their
// channels; Backprop/Sgemm touch nearly all), the write fraction (dirty
// chunks on eviction), the re-reference count (device-memory hit rate), and
// the page-visit order (sequential sweeps vs. pointer chasing).
//
// Streams are deterministic for a given seed so different security models
// see byte-identical access sequences.
package trace

import (
	"errors"
	"fmt"
	"math/rand"
)

// Access is one warp-level memory access in the CXL (home) address space.
type Access struct {
	Addr  uint64 // sector-aligned byte address
	Write bool
}

// Pattern selects the page-visit order.
type Pattern int

const (
	// Sequential visits pages in address order (dense sweeps: stencil,
	// kmeans, backprop).
	Sequential Pattern = iota
	// Random visits pages in a seeded random order (graph workloads,
	// b+tree lookups).
	Random
	// Strided visits pages with a fixed page stride (tiled kernels).
	Strided
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	case Strided:
		return "strided"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Params describes one workload.
type Params struct {
	Name           string
	FootprintBytes uint64  // total data footprint
	PageCoverage   float64 // fraction of a page's chunks touched per visit (0..1]
	Rereference    int     // accesses per touched sector during a visit (>=1)
	WriteFraction  float64 // fraction of accesses that are writes
	ComputePerMem  int     // compute instructions retired per memory access
	Pattern        Pattern
	PageStride     int   // pages skipped between visits (Strided only)
	Passes         int   // full passes over the footprint
	Seed           int64 // base PRNG seed
}

// Validate reports parameter problems.
func (p Params) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("trace: workload needs a name")
	case p.FootprintBytes == 0:
		return errors.New("trace: zero footprint")
	case p.PageCoverage <= 0 || p.PageCoverage > 1:
		return fmt.Errorf("trace: %s: page coverage %v outside (0,1]", p.Name, p.PageCoverage)
	case p.Rereference < 1:
		return fmt.Errorf("trace: %s: re-reference %d < 1", p.Name, p.Rereference)
	case p.WriteFraction < 0 || p.WriteFraction > 1:
		return fmt.Errorf("trace: %s: write fraction %v outside [0,1]", p.Name, p.WriteFraction)
	case p.ComputePerMem < 0:
		return fmt.Errorf("trace: %s: negative compute ratio", p.Name)
	case p.Passes < 1:
		return fmt.Errorf("trace: %s: passes %d < 1", p.Name, p.Passes)
	case p.Pattern == Strided && p.PageStride < 1:
		return fmt.Errorf("trace: %s: strided pattern needs a positive stride", p.Name)
	}
	return nil
}

// Geometry is the subset of layout constants the generator needs.
type Geometry struct {
	SectorSize int
	ChunkSize  int
	PageSize   int
}

// Stream produces one SM's access sequence.
type Stream struct {
	p   Params
	geo Geometry
	rng *rand.Rand

	pages     []uint64 // page indices this stream visits, in order
	pageIdx   int
	visit     []uint64 // sector addresses of the current page visit, in order
	visitIdx  int
	chunks    []int // scratch: the chunks of the current page visit
	capped    bool
	remaining int // total accesses left when capped
}

// NewStream builds the stream for one SM out of totalSMs. maxAccesses caps
// the stream length (0 = no cap beyond the configured passes).
func (p Params) NewStream(geo Geometry, sm, totalSMs, maxAccesses int) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sm < 0 || totalSMs <= 0 || sm >= totalSMs {
		return nil, fmt.Errorf("trace: sm %d out of range of %d", sm, totalSMs)
	}
	nPages := int(p.FootprintBytes / uint64(geo.PageSize))
	if nPages == 0 {
		return nil, errors.New("trace: footprint smaller than one page")
	}
	s := &Stream{
		p:         p,
		geo:       geo,
		rng:       rand.New(rand.NewSource(p.Seed ^ int64(sm)*0x5DEECE66D + int64(sm+1))),
		capped:    maxAccesses > 0,
		remaining: maxAccesses,
	}
	// Partition pages round-robin over SMs, then order per pattern. Each
	// pass repeats the sequence (re-visits after likely eviction).
	var mine []uint64
	for pg := sm; pg < nPages; pg += totalSMs {
		mine = append(mine, uint64(pg))
	}
	if len(mine) == 0 { // more SMs than pages: share page sm%nPages
		mine = []uint64{uint64(sm % nPages)}
	}
	switch p.Pattern {
	case Random:
		s.rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
	case Strided:
		stride := p.PageStride
		reordered := make([]uint64, 0, len(mine))
		for start := 0; start < stride; start++ {
			for i := start; i < len(mine); i += stride {
				reordered = append(reordered, mine[i])
			}
		}
		mine = reordered
	}
	for pass := 0; pass < p.Passes; pass++ {
		s.pages = append(s.pages, mine...)
	}
	return s, nil
}

// buildVisit fills s.visit with the sector-granular accesses of one page
// visit: a coverage-sized subset of the page's chunks, each sector of a
// chosen chunk accessed Rereference times, ordered chunk-by-chunk (spatial
// locality within the visit).
func (s *Stream) buildVisit(page uint64) {
	chunksPerPage := s.geo.PageSize / s.geo.ChunkSize
	sectorsPerChunk := s.geo.ChunkSize / s.geo.SectorSize
	nChunks := int(float64(chunksPerPage)*s.p.PageCoverage + 0.5)
	if nChunks < 1 {
		nChunks = 1
	}
	if nChunks > chunksPerPage {
		nChunks = chunksPerPage
	}
	// Choose which chunks: sequential prefix for sweeps, random subset for
	// irregular workloads. Using the pattern keeps sweeps channel-ordered.
	chunks := s.chunks[:0]
	if s.p.Pattern == Random {
		perm := s.rng.Perm(chunksPerPage)
		for _, c := range perm[:nChunks] {
			chunks = append(chunks, c)
		}
	} else {
		// Rotate the starting chunk per page so partial coverage does not
		// always hit channel 0 (matches diagonal/wavefront access).
		start := int(page) % chunksPerPage
		for i := 0; i < nChunks; i++ {
			chunks = append(chunks, (start+i)%chunksPerPage)
		}
	}
	s.chunks = chunks
	base := page * uint64(s.geo.PageSize)
	s.visit = s.visit[:0]
	for _, c := range chunks {
		chunkBase := base + uint64(c*s.geo.ChunkSize)
		for r := 0; r < s.p.Rereference; r++ {
			for sec := 0; sec < sectorsPerChunk; sec++ {
				s.visit = append(s.visit, chunkBase+uint64(sec*s.geo.SectorSize))
			}
		}
	}
	s.visitIdx = 0
}

// Next returns the next access; ok is false when the stream is exhausted.
func (s *Stream) Next() (Access, bool) {
	if s.capped && s.remaining == 0 {
		return Access{}, false
	}
	for s.visitIdx >= len(s.visit) {
		if s.pageIdx >= len(s.pages) {
			return Access{}, false
		}
		s.buildVisit(s.pages[s.pageIdx])
		s.pageIdx++
	}
	addr := s.visit[s.visitIdx]
	s.visitIdx++
	if s.capped {
		s.remaining--
	}
	return Access{Addr: addr, Write: s.rng.Float64() < s.p.WriteFraction}, true
}

// ComputePerMem returns the workload's compute-to-memory instruction ratio.
func (s *Stream) ComputePerMem() int { return s.p.ComputePerMem }
