package pagecache

import (
	"testing"

	"github.com/salus-sim/salus/internal/securemem"
)

// TestAccessAddressBoundaries locks in the typed home→device address
// math at the geometry edges: first and last byte of the first and last
// chunk of a page, in frame 0 and in the last frame, across an eviction
// that re-targets frame 0. The invariant is that Access preserves the
// page offset exactly and never leaks page identity into the frame
// offset (that separation is what the HomeAddr/DevAddr split encodes).
func TestAccessAddressBoundaries(t *testing.T) {
	eng, pc, _, _ := testSetup(true, 2, 4)
	const pageSize = 4096
	const chunkSize = 256

	type probe struct {
		name      string
		page      int
		off       uint64
		wantFrame int
	}
	probes := []probe{
		{"page0/first-chunk/first-byte", 0, 0, 0},
		{"page0/first-chunk/last-byte", 0, chunkSize - 1, 0},
		{"page0/last-chunk/first-byte", 0, pageSize - chunkSize, 0},
		{"page0/last-chunk/last-byte", 0, pageSize - 1, 0},
		// Page 1 takes the second (last) frame.
		{"page1/first-chunk/first-byte", 1, 0, 1},
		{"page1/last-chunk/last-byte", 1, pageSize - 1, 1},
	}

	eng.At(0, func() {
		var step func(i int)
		step = func(i int) {
			if i == len(probes) {
				return
			}
			p := probes[i]
			homeAddr := securemem.HomePageAddr(p.page, pageSize, p.off)
			pc.Access(req(homeAddr, false, func(devAddr securemem.DevAddr) {
				if got := devAddr.Frame(pageSize); got != p.wantFrame {
					t.Errorf("%s: frame = %d, want %d", p.name, got, p.wantFrame)
				}
				if got := devAddr.PageOffset(pageSize); got != p.off {
					t.Errorf("%s: device offset = %#x, want %#x", p.name, got, p.off)
				}
				if got, want := devAddr, securemem.FrameAddr(p.wantFrame, pageSize, p.off); got != want {
					t.Errorf("%s: devAddr = %#x, want %#x", p.name, got, want)
				}
				if got, want := homeAddr.PageOffset(pageSize), devAddr.PageOffset(pageSize); got != want {
					t.Errorf("%s: home offset %#x != device offset %#x", p.name, got, want)
				}
				step(i + 1)
			}))
		}
		step(0)
	})
	eng.Run(0)

	// Touch pages 2 and 3: both frames are occupied, so each access
	// evicts the LRU page. Whatever frame the evictor picks, the offset
	// invariants must survive re-targeting.
	eng.At(eng.Now()+1, func() {
		const off = pageSize - 1 // last byte of the last chunk
		pc.Access(req(securemem.HomePageAddr(2, pageSize, off), true, func(devAddr securemem.DevAddr) {
			if got := devAddr.PageOffset(pageSize); got != off {
				t.Errorf("page2 after eviction: device offset = %#x, want %#x", got, off)
			}
			if f := devAddr.Frame(pageSize); f != 0 && f != 1 {
				t.Errorf("page2: impossible frame %d", f)
			}
			pc.Access(req(securemem.HomePageAddr(3, pageSize, 0), true, func(devAddr2 securemem.DevAddr) {
				if got := devAddr2.PageOffset(pageSize); got != 0 {
					t.Errorf("page3 after eviction: device offset = %#x, want 0", got)
				}
				if devAddr2.Frame(pageSize) == devAddr.Frame(pageSize) {
					t.Error("pages 2 and 3 share a frame while both resident")
				}
			}))
		}))
	})
	eng.Run(0)
}

// TestAccessChunkBoundaryStraddle verifies that two accesses one byte
// apart across a chunk boundary land in the same frame at adjacent
// device offsets — chunk granularity affects fill bookkeeping, never
// address translation.
func TestAccessChunkBoundaryStraddle(t *testing.T) {
	eng, pc, _, _ := testSetup(true, 2, 4)
	const pageSize = 4096
	const chunkSize = 256

	var before, after securemem.DevAddr
	eng.At(0, func() {
		pc.Access(req(securemem.HomePageAddr(0, pageSize, chunkSize-1), false, func(d securemem.DevAddr) {
			before = d
			pc.Access(req(securemem.HomePageAddr(0, pageSize, chunkSize), false, func(d2 securemem.DevAddr) {
				after = d2
			}))
		}))
	})
	eng.Run(0)
	if after != before+1 {
		t.Errorf("straddle: devAddrs %#x, %#x not adjacent", before, after)
	}
	if before.Frame(pageSize) != after.Frame(pageSize) {
		t.Error("straddle crossed frames")
	}
}
