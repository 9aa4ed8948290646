package bmt

import (
	"testing"
	"testing/quick"

	"github.com/salus-sim/salus/internal/security/cryptoeng"
)

func newEngine(t *testing.T) *cryptoeng.Engine {
	t.Helper()
	return cryptoeng.MustNew([]byte("0123456789abcdef"), []byte("mac"), 56)
}

func TestNewValidation(t *testing.T) {
	e := newEngine(t)
	if _, err := New(nil, 4); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(e, 0); err == nil {
		t.Error("zero leaves accepted")
	}
	if _, err := New(e, -3); err == nil {
		t.Error("negative leaves accepted")
	}
}

func TestFreshTreeVerifies(t *testing.T) {
	tree, err := New(newEngine(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []int{0, 1, 63, 64, 99} {
		data, err := tree.Leaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Verify(leaf, data); err != nil {
			t.Errorf("fresh leaf %d fails verification: %v", leaf, err)
		}
	}
}

func TestUpdateThenVerify(t *testing.T) {
	tree, err := New(newEngine(t), 20)
	if err != nil {
		t.Fatal(err)
	}
	var data [LeafBytes]byte
	data[0] = 0xAA
	oldRoot := tree.Root()
	if err := tree.Update(7, data); err != nil {
		t.Fatal(err)
	}
	if tree.Root() == oldRoot {
		t.Error("root unchanged after update")
	}
	if err := tree.Verify(7, data); err != nil {
		t.Errorf("updated leaf fails: %v", err)
	}
	// Unrelated leaves still verify.
	other, _ := tree.Leaf(3)
	if err := tree.Verify(3, other); err != nil {
		t.Errorf("unrelated leaf broken by update: %v", err)
	}
}

func TestReplayDetected(t *testing.T) {
	tree, err := New(newEngine(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 [LeafBytes]byte
	v1[0], v2[0] = 1, 2
	if err := tree.Update(5, v1); err != nil {
		t.Fatal(err)
	}
	stale, _ := tree.Leaf(5) // capture version 1
	if err := tree.Update(5, v2); err != nil {
		t.Fatal(err)
	}
	// Attacker replays the old counter block.
	if err := tree.Verify(5, stale); err == nil {
		t.Error("replayed stale leaf accepted")
	}
	// The genuine current value still verifies.
	cur, _ := tree.Leaf(5)
	if err := tree.Verify(5, cur); err != nil {
		t.Errorf("current leaf rejected: %v", err)
	}
}

func TestTamperDetected(t *testing.T) {
	tree, err := New(newEngine(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	var evil [LeafBytes]byte
	evil[31] = 0xFF
	tree.CorruptLeafForTest(9, evil)
	got, _ := tree.Leaf(9)
	if err := tree.Verify(9, got); err == nil {
		t.Error("tampered leaf accepted")
	}
}

func TestBoundsChecking(t *testing.T) {
	tree, err := New(newEngine(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	var d [LeafBytes]byte
	if err := tree.Update(-1, d); err == nil {
		t.Error("Update(-1) accepted")
	}
	if err := tree.Update(8, d); err == nil {
		t.Error("Update(8) accepted")
	}
	if err := tree.Verify(8, d); err == nil {
		t.Error("Verify(8) accepted")
	}
	if _, err := tree.Leaf(-5); err == nil {
		t.Error("Leaf(-5) accepted")
	}
}

func TestLevelsAndNodes(t *testing.T) {
	cases := []struct {
		leaves, levels, interior int
	}{
		{1, 1, 0},           // single leaf is the root level... built as 1 level
		{8, 2, 8},           // 8 leaves -> 8 leaf hashes + root
		{9, 3, 9 + 2},       // 9 -> 2 -> 1
		{64, 3, 64 + 8},     // 64 -> 8 -> 1
		{65, 4, 65 + 9 + 2}, // 65 -> 9 -> 2 -> 1
	}
	e := newEngine(t)
	for _, c := range cases {
		tree, err := New(e, c.leaves)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Levels(); got != c.levels {
			t.Errorf("Levels(%d leaves) = %d, want %d", c.leaves, got, c.levels)
		}
		if got := tree.InteriorNodes(); got != c.interior {
			t.Errorf("InteriorNodes(%d leaves) = %d, want %d", c.leaves, got, c.interior)
		}
		if got := tree.Leaves(); got != c.leaves {
			t.Errorf("Leaves() = %d", got)
		}
	}
}

func TestPathLength(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 8: 1, 9: 2, 64: 2, 512: 3, 513: 4}
	for leaves, want := range cases {
		if got := PathLength(leaves); got != want {
			t.Errorf("PathLength(%d) = %d, want %d", leaves, got, want)
		}
	}
}

func TestSmallerTreeForCoarserLeaves(t *testing.T) {
	// The paper's point: the CXL tree over collapsed counters (1 sector per
	// 2 KiB) is much smaller than one over MAC sectors (1 per 128 B).
	dataBytes := 1 << 20
	overMACs := PathLength(dataBytes / 128)
	overCollapsed := PathLength(dataBytes / 2048)
	if overCollapsed >= overMACs {
		t.Errorf("collapsed tree depth %d not smaller than MAC tree depth %d", overCollapsed, overMACs)
	}
}

func TestRootStableAcrossRebuild(t *testing.T) {
	// Property: trees built with the same updates end with the same root.
	f := func(updates []uint8) bool {
		e := cryptoeng.MustNew([]byte("0123456789abcdef"), []byte("mac"), 56)
		t1, err := New(e, 32)
		if err != nil {
			return false
		}
		t2, err := New(e, 32)
		if err != nil {
			return false
		}
		for i, u := range updates {
			var d [LeafBytes]byte
			d[0] = u
			d[1] = byte(i)
			if t1.Update(int(u)%32, d) != nil || t2.Update(int(u)%32, d) != nil {
				return false
			}
		}
		return t1.Root() == t2.Root()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrustCacheShortCircuits(t *testing.T) {
	tree, err := New(newEngine(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	tree.SetTrustCache(64)
	var d [LeafBytes]byte
	d[0] = 7
	if err := tree.Update(5, d); err != nil {
		t.Fatal(err)
	}
	// Update marked the path trusted: VerifyCached succeeds.
	if err := tree.VerifyCached(5, d); err != nil {
		t.Fatalf("cached verify after update: %v", err)
	}
	// Cold leaf: full walk, then trusted.
	leaf, _ := tree.Leaf(42)
	if err := tree.VerifyCached(42, leaf); err != nil {
		t.Fatalf("cold cached verify: %v", err)
	}
	if err := tree.VerifyCached(42, leaf); err != nil {
		t.Fatalf("warm cached verify: %v", err)
	}
}

func TestTrustCacheStillDetectsAttacks(t *testing.T) {
	tree, err := New(newEngine(t), 64)
	if err != nil {
		t.Fatal(err)
	}
	tree.SetTrustCache(32)
	var v1, v2 [LeafBytes]byte
	v1[0], v2[0] = 1, 2
	if err := tree.Update(9, v1); err != nil {
		t.Fatal(err)
	}
	stale, _ := tree.Leaf(9)
	if err := tree.Update(9, v2); err != nil {
		t.Fatal(err)
	}
	// Replay with a warm trust cache must still fail: the leaf hash check
	// happens before any short-circuit.
	if err := tree.VerifyCached(9, stale); err == nil {
		t.Error("replayed leaf accepted with trust cache")
	}
	var evil [LeafBytes]byte
	evil[31] = 0xEE
	tree.CorruptLeafForTest(10, evil)
	got, _ := tree.Leaf(10)
	if err := tree.VerifyCached(10, got); err == nil {
		t.Error("tampered leaf accepted with trust cache")
	}
}

func TestTrustCacheOverflowClears(t *testing.T) {
	tree, err := New(newEngine(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	tree.SetTrustCache(4) // tiny: constant clearing
	for i := 0; i < 64; i++ {
		leaf, _ := tree.Leaf(i)
		if err := tree.VerifyCached(i, leaf); err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
	}
	if len(tree.trusted) > 4 {
		t.Errorf("trust cache grew to %d entries, cap 4", len(tree.trusted))
	}
}

func TestVerifyCachedWithoutCacheEqualsVerify(t *testing.T) {
	tree, err := New(newEngine(t), 32)
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := tree.Leaf(3)
	if err := tree.VerifyCached(3, leaf); err != nil {
		t.Fatalf("no-cache VerifyCached: %v", err)
	}
	if err := tree.VerifyCached(-1, leaf); err == nil {
		t.Error("out-of-range accepted")
	}
}

// TestBuildEqualsUpdatedTree pins Build to the incremental path: a tree
// built in one pass over given leaves has the root (and verifies every
// leaf) exactly as a zero tree whose leaves were each Updated to them.
func TestBuildEqualsUpdatedTree(t *testing.T) {
	e := newEngine(t)
	for _, n := range []int{1, 7, 8, 9, 64, 65, 513} {
		leaves := make([][LeafBytes]byte, n)
		updated, err := New(e, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range leaves {
			leaves[i][0], leaves[i][31] = byte(i), byte(i>>8)+1
			if err := updated.Update(i, leaves[i]); err != nil {
				t.Fatal(err)
			}
		}
		built, err := Build(e, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if built.Root() != updated.Root() {
			t.Fatalf("%d leaves: Build root differs from the updated tree's", n)
		}
		for _, i := range []int{0, n / 2, n - 1} {
			if err := built.Verify(i, leaves[i]); err != nil {
				t.Fatalf("%d leaves: built leaf %d fails: %v", n, i, err)
			}
		}
	}
	if _, err := Build(e, nil); err == nil {
		t.Error("empty leaf set accepted")
	}
	if _, err := Build(nil, make([][LeafBytes]byte, 4)); err == nil {
		t.Error("nil engine accepted")
	}
}
