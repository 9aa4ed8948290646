package cache

import (
	"testing"
	"testing/quick"

	"github.com/salus-sim/salus/internal/sim"
)

func smallCfg() Config {
	return Config{SizeBytes: 1024, BlockSize: 128, SectorSize: 32, Ways: 2, MSHRs: 4}
}

func TestConfigValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, BlockSize: 128, SectorSize: 32, Ways: 2},
		{SizeBytes: 1024, BlockSize: 100, SectorSize: 32, Ways: 2},  // block % sector
		{SizeBytes: 1024, BlockSize: 4096, SectorSize: 32, Ways: 2}, // >32 sectors
		{SizeBytes: 1000, BlockSize: 128, SectorSize: 32, Ways: 2},  // size % (block*ways)
		{SizeBytes: 1152, BlockSize: 128, SectorSize: 32, Ways: 3},  // 3 sets, not pow2
		{SizeBytes: 1024, BlockSize: 128, SectorSize: 32, Ways: 2, MSHRs: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSectorMask(t *testing.T) {
	m := MaskAll(4)
	if m != 0xF {
		t.Errorf("MaskAll(4) = %x, want f", m)
	}
	if !m.Has(0) || !m.Has(3) || m.Has(4) {
		t.Error("Has wrong")
	}
	if m.Count() != 4 {
		t.Errorf("Count = %d, want 4", m.Count())
	}
	if MaskAll(0) != 0 {
		t.Error("MaskAll(0) != 0")
	}
}

func TestLookupMissThenFillHit(t *testing.T) {
	c := New(smallCfg())
	r := c.Lookup(0x1000, 0b0011)
	if r.LinePresent || r.Hit != 0 || r.Miss != 0b0011 {
		t.Fatalf("cold lookup = %+v", r)
	}
	if v, ok := c.Fill(0x1000, 0b0011, 7); ok {
		t.Fatalf("fill into empty set evicted %+v", v)
	}
	r = c.Lookup(0x1000, 0b0001)
	if !r.LinePresent || r.Hit != 0b0001 || r.Miss != 0 || r.Extra != 7 {
		t.Fatalf("warm lookup = %+v", r)
	}
	// Partial sector hit: sector 2 absent.
	r = c.Lookup(0x1000, 0b0110)
	if r.Hit != 0b0010 || r.Miss != 0b0100 {
		t.Fatalf("partial lookup = %+v", r)
	}
}

func TestBlockAddrSectorIndex(t *testing.T) {
	c := New(smallCfg())
	if got := c.BlockAddr(0x1234); got != 0x1200+0x00 { // 0x1234 % 128 = 0x34
		if got != 0x1234-0x34 {
			t.Errorf("BlockAddr = %#x", got)
		}
	}
	if got := c.SectorIndex(0x1234); got != 1 { // 0x34=52; 52/32 = 1
		t.Errorf("SectorIndex = %d, want 1", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallCfg()) // 4 sets, 2 ways
	// Three blocks mapping to the same set: set = (addr/128) % 4.
	a, b, d := Addr(0), Addr(128*4), Addr(128*8)
	c.Fill(a, 0b1, 0)
	c.Fill(b, 0b1, 0)
	c.Lookup(a, 0b1) // make a MRU
	v, ok := c.Fill(d, 0b1, 0)
	if !ok || v.BlockAddr != b {
		t.Fatalf("victim = %+v, want block %#x", v, b)
	}
	if _, _, _, ok := c.Peek(a); !ok {
		t.Error("MRU block was evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(smallCfg())
	c.Fill(0, 0b0011, 0)
	if !c.MarkDirty(0, 0b0001) {
		t.Fatal("MarkDirty on valid sector failed")
	}
	if c.MarkDirty(0, 0b0100) {
		t.Error("MarkDirty on invalid sector succeeded")
	}
	if c.MarkDirty(0x8000, 0b1) {
		t.Error("MarkDirty on absent block succeeded")
	}
	// Force eviction of block 0 by filling its set.
	c.Fill(128*4, 0b1, 0)
	v, ok := c.Fill(128*8, 0b1, 0)
	if !ok || v.BlockAddr != 0 || v.Dirty != 0b0001 {
		t.Fatalf("victim = %+v, want dirty mask 1 on block 0", v)
	}
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", st.Writebacks)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := New(smallCfg())
	c.Fill(0, 0b11, 5)
	c.MarkDirty(0, 0b01)
	c.Fill(128, 0b11, 6)
	c.MarkDirty(128, 0b10)

	v, ok := c.Invalidate(0)
	if !ok || v.Dirty != 0b01 || v.Extra != 5 {
		t.Fatalf("Invalidate = %+v", v)
	}
	if _, ok := c.Invalidate(0); ok {
		t.Error("double Invalidate returned a victim")
	}
	flushed := c.FlushDirty()
	if len(flushed) != 1 || flushed[0].BlockAddr != 128 || flushed[0].Dirty != 0b10 {
		t.Fatalf("FlushDirty = %+v", flushed)
	}
	if again := c.FlushDirty(); len(again) != 0 {
		t.Errorf("second FlushDirty = %+v, want empty", again)
	}
}

func TestSetExtra(t *testing.T) {
	c := New(smallCfg())
	c.Fill(0, 0b1, 1)
	if !c.SetExtra(0, 42) {
		t.Fatal("SetExtra on present line failed")
	}
	if r := c.Lookup(0, 0b1); r.Extra != 42 {
		t.Errorf("Extra = %d, want 42", r.Extra)
	}
	if c.SetExtra(0x9000, 1) {
		t.Error("SetExtra on absent line succeeded")
	}
}

func TestMSHRLifecycle(t *testing.T) {
	c := New(smallCfg())
	var filled SectorMask
	// The waiter reads the line when it fires: the fill must already have
	// installed every pending sector.
	st := c.AllocateMSHR(0, 0b0001, sim.Func(func() { filled, _, _, _ = c.Peek(0) }))
	if st != MSHRNew {
		t.Fatalf("first allocate = %v, want MSHRNew", st)
	}
	st = c.AllocateMSHR(0, 0b0010, nil)
	if st != MSHRMerged {
		t.Fatalf("second allocate = %v, want MSHRMerged", st)
	}
	if got := c.PendingMSHR(0); got != 0b0011 {
		t.Fatalf("Pending = %b, want 11", got)
	}
	if c.OutstandingMSHRs() != 1 {
		t.Fatalf("Outstanding = %d, want 1", c.OutstandingMSHRs())
	}
	c.CompleteMSHR(0, 9)
	if filled != 0b0011 {
		t.Errorf("waiter saw mask %b, want 11", filled)
	}
	if c.OutstandingMSHRs() != 0 {
		t.Error("MSHR not released")
	}
	if r := c.Lookup(0, 0b0011); r.Miss != 0 || r.Extra != 9 {
		t.Errorf("post-fill lookup = %+v", r)
	}
	if _, ok := c.CompleteMSHR(0x7777, 0); ok {
		t.Error("CompleteMSHR on unknown block returned victim")
	}
}

func TestMSHRRecycledWithoutStaleWaiters(t *testing.T) {
	c := New(smallCfg())
	fired := 0
	w := sim.Func(func() { fired++ })
	c.AllocateMSHR(0, 1, w)
	c.AllocateMSHR(0, 1, w)
	c.CompleteMSHR(0, 0)
	if fired != 2 {
		t.Fatalf("waiters fired %d times, want 2", fired)
	}
	// The recycled entry starts empty: only the new waiter fires.
	c.AllocateMSHR(128, 1, w)
	c.CompleteMSHR(128, 0)
	if fired != 3 {
		t.Fatalf("waiters fired %d times after reuse, want 3", fired)
	}
	var h sim.Handler = w
	if got := testing.AllocsPerRun(100, func() {
		c.AllocateMSHR(256, 1, h)
		c.CompleteMSHR(256, 0)
	}); got != 0 {
		t.Errorf("MSHR allocate/complete allocates %.1f times, want 0", got)
	}
}

func TestMSHRFull(t *testing.T) {
	cfg := smallCfg()
	cfg.MSHRs = 2
	c := New(cfg)
	c.AllocateMSHR(0, 1, nil)
	c.AllocateMSHR(128, 1, nil)
	if st := c.AllocateMSHR(256, 1, nil); st != MSHRFull {
		t.Fatalf("third allocate = %v, want MSHRFull", st)
	}
	// Merging into existing entries still works when full.
	if st := c.AllocateMSHR(0, 2, nil); st != MSHRMerged {
		t.Fatalf("merge while full = %v, want MSHRMerged", st)
	}
}

func TestStatsCounting(t *testing.T) {
	c := New(smallCfg())
	c.Lookup(0, 0b11) // line miss, 2 sector misses
	c.Fill(0, 0b01, 0)
	c.Lookup(0, 0b11) // line hit, 1 sector hit, 1 sector miss
	st := c.Stats()
	if st.Lookups != 2 || st.LineHits != 1 || st.LineMisses != 1 {
		t.Errorf("line stats = %+v", st)
	}
	if st.SectorHits != 1 || st.SectorMisses != 3 {
		t.Errorf("sector stats = %+v", st)
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	// Property: after arbitrary fills, the number of resident blocks never
	// exceeds ways×sets, and a just-filled block is always present.
	cfg := smallCfg()
	f := func(addrs []uint16) bool {
		c := New(cfg)
		for _, a := range addrs {
			block := c.BlockAddr(Addr(a) * 32)
			c.Fill(block, 0b1, 0)
			if _, _, _, ok := c.Peek(block); !ok {
				return false
			}
		}
		resident := 0
		seen := map[Addr]bool{}
		for _, a := range addrs {
			block := c.BlockAddr(Addr(a) * 32)
			if seen[block] {
				continue
			}
			seen[block] = true
			if _, _, _, ok := c.Peek(block); ok {
				resident++
			}
		}
		return resident <= cfg.SizeBytes/cfg.BlockSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFillMergesSectors(t *testing.T) {
	c := New(smallCfg())
	c.Fill(0, 0b0001, 0)
	if v, ok := c.Fill(0, 0b0100, 3); ok {
		t.Fatalf("refill same block evicted %+v", v)
	}
	valid, _, extra, ok := c.Peek(0)
	if !ok || valid != 0b0101 || extra != 3 {
		t.Errorf("after merge: valid=%b extra=%d ok=%v", valid, extra, ok)
	}
}
