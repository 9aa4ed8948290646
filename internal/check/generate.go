package check

import "math/rand"

// FillData returns the deterministic payload for a write op: a function of
// (tag, length) only, so a shrunk sequence printed as a regression test
// reproduces its payloads without embedding them.
func FillData(tag byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(uint32(tag)*131 + uint32(i)*29 + 7)
	}
	return d
}

// opMix maps a percentile draw to an op kind: the first entry whose bound
// exceeds the draw.
type opMix []struct {
	below int
	kind  OpKind
}

// gen draws the skewed operations every sequence generator shares:
// addresses favour chunk boundaries (straddles) and sector and chunk
// alignment, and the device tier is far smaller than the footprint so
// migrations and evictions are constant.
type gen struct {
	rng *rand.Rand
	s   Space
}

func (g gen) addr() uint64 {
	geo := g.s.Geometry
	page := g.rng.Intn(g.s.TotalPages)
	var off int
	switch g.rng.Intn(4) {
	case 0: // a few bytes before a chunk boundary: forces a straddle
		c := 1 + g.rng.Intn(geo.ChunksPerPage()-1)
		off = c*geo.ChunkSize - (1 + g.rng.Intn(4))
	case 1: // sector-aligned
		off = g.rng.Intn(geo.SectorsPerPage()) * geo.SectorSize
	case 2: // chunk-aligned
		off = g.rng.Intn(geo.ChunksPerPage()) * geo.ChunkSize
	default:
		off = g.rng.Intn(geo.PageSize)
	}
	return uint64(page*geo.PageSize + off)
}

// span draws an address and a length favouring partial, straddling and
// chunk-crossing spans, clamped to the end of the space.
func (g gen) span() (uint64, int) {
	addr, geo := g.addr(), g.s.Geometry
	var n int
	switch g.rng.Intn(6) {
	case 0:
		n = 1 + g.rng.Intn(4)
	case 1:
		n = geo.SectorSize
	case 2:
		n = geo.SectorSize + 1
	case 3:
		n = geo.ChunkSize/2 + g.rng.Intn(geo.ChunkSize)
	default:
		n = 1 + g.rng.Intn(2*geo.SectorSize)
	}
	if max := g.s.size() - addr; uint64(n) > max {
		n = int(max)
	}
	return addr, n
}

// op draws one in-range operation from mix; tag numbers the write
// payloads.
func (g gen) op(mix opMix, tag *byte) Op {
	r := g.rng.Intn(100)
	k := mix[len(mix)-1].kind
	for _, m := range mix {
		if r < m.below {
			k = m.kind
			break
		}
	}
	switch k {
	case OpWrite, OpWriteThrough:
		*tag++
		addr, n := g.span()
		return Op{Kind: k, Addr: addr, Len: n, Tag: *tag}
	case OpRead, OpReadThrough:
		addr, n := g.span()
		return Op{Kind: k, Addr: addr, Len: n}
	case OpCheckpoint:
		return Op{Kind: k, Addr: g.addr()}
	}
	return Op{Kind: k}
}

// GenerateSequence produces the deterministic operation sequence for one
// seed. The distribution is deliberately skewed: addresses favour chunk
// boundaries (straddles), lengths favour partial and multi-sector spans,
// the device tier is far smaller than the footprint so migrations and
// evictions are constant, and a slice of ops are hostile out-of-range or
// address-wrapping probes that every model must reject identically.
func GenerateSequence(cfg Config, seed int64) Sequence {
	rng := rand.New(rand.NewSource(seed))
	g := gen{rng: rng, s: cfg.Space}
	geo := cfg.Geometry
	size := cfg.size()

	genLen := func() int {
		switch rng.Intn(8) {
		case 0:
			if rng.Intn(8) == 0 {
				return 0
			}
			return 1 + rng.Intn(4)
		case 1:
			return geo.SectorSize // exactly one sector
		case 2:
			return geo.SectorSize + 1 // sector straddle
		case 3:
			return 2*geo.SectorSize + 3 // multi-sector straddle
		case 4:
			return geo.ChunkSize/2 + rng.Intn(geo.ChunkSize) // can straddle chunks
		default:
			return 1 + rng.Intn(2*geo.SectorSize)
		}
	}
	hostile := func() (uint64, int) {
		switch rng.Intn(4) {
		case 0: // past the end
			return size + uint64(rng.Intn(1024)), 1 + rng.Intn(64)
		case 1: // addr+len wraps around 2^64 — the classic bounds-check trap
			return ^uint64(0) - uint64(rng.Intn(64)), 1 + rng.Intn(96)
		case 2: // in-range addr, range crosses the end
			return size - uint64(1+rng.Intn(32)), 33 + rng.Intn(64)
		default: // in-range addr, absurd length
			return uint64(rng.Intn(int(size))), int(size) + rng.Intn(256)
		}
	}

	ops := make([]Op, 0, cfg.Ops)
	var tag byte
	for i := 0; i < cfg.Ops; i++ {
		switch r := rng.Intn(100); {
		case r < 26: // cached read (migrates)
			ops = append(ops, Op{Kind: OpRead, Addr: g.addr(), Len: genLen()})
		case r < 56: // cached write (migrates, dirties)
			tag++
			ops = append(ops, Op{Kind: OpWrite, Addr: g.addr(), Len: genLen(), Tag: tag})
		case r < 64: // direct CXL read
			ops = append(ops, Op{Kind: OpReadThrough, Addr: g.addr(), Len: genLen()})
		case r < 74: // direct CXL write (split counters)
			tag++
			ops = append(ops, Op{Kind: OpWriteThrough, Addr: g.addr(), Len: genLen(), Tag: tag})
		case r < 80:
			ops = append(ops, Op{Kind: OpCheckpoint, Addr: g.addr()})
		case r < 85:
			ops = append(ops, Op{Kind: OpFlush})
		case r < 87:
			ops = append(ops, Op{Kind: OpSuspendResume})
		default: // hostile probes (~13%)
			addr, n := hostile()
			if rng.Intn(2) == 0 {
				ops = append(ops, Op{Kind: OpRead, Addr: addr, Len: n})
			} else {
				tag++
				ops = append(ops, Op{Kind: OpWrite, Addr: addr, Len: n, Tag: tag})
			}
		}
	}
	return Sequence{Seed: seed, Ops: ops}
}
