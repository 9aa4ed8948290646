package tenant

import (
	"bytes"
	"errors"
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/securemem"
)

func testGeometry() config.Geometry {
	return config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096}
}

// newTestPool builds a two-tenant pool: a at pages [0,8), b at [8,16),
// two device frames each.
func newTestPool(t *testing.T, slices ...Slice) *Pool {
	t.Helper()
	if slices == nil {
		slices = []Slice{
			{ID: "a", BasePage: 0, Pages: 8, Frames: 2},
			{ID: "b", BasePage: 8, Pages: 8, Frames: 2},
		}
	}
	p, err := NewPool(Config{Geometry: testGeometry(), Slices: slices})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func tn(t *testing.T, p *Pool, id string) *Tenant {
	t.Helper()
	ten, err := p.Tenant(id)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

func TestPoolRoundTripAndGlobalAddressing(t *testing.T) {
	p := newTestPool(t)
	a, b := tn(t, p, "a"), tn(t, p, "b")

	msgA := []byte("tenant A plaintext, page two!")
	msgB := []byte("tenant B plaintext, page ten!")
	if err := a.Write(2*4096+64, msgA); err != nil {
		t.Fatal(err)
	}
	// b addresses pool-globally: its slice starts at page 8.
	if err := b.Write(10*4096+64, msgB); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msgA))
	if err := a.Read(2*4096+64, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msgA) {
		t.Fatalf("tenant a read %q, want %q", got, msgA)
	}
	got = make([]byte, len(msgB))
	if err := b.Read(10*4096+64, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msgB) {
		t.Fatalf("tenant b read %q, want %q", got, msgB)
	}

	if _, err := p.Tenant("nobody"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant lookup: got %v", err)
	}
}

// TestCrossTenantDeniedTyped pins the isolation gate: every flavour of
// out-of-slice access fails ErrTenantDenied, never bytes, and the
// caller's buffer is untouched.
func TestCrossTenantDeniedTyped(t *testing.T) {
	p := newTestPool(t)
	a, b := tn(t, p, "a"), tn(t, p, "b")

	secret := []byte("b's secret, resident or parked")
	if err := b.Write(9*4096, secret); err != nil {
		t.Fatal(err)
	}
	// Evict b's pages so the probe targets non-resident (parked) state.
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	sentinel := bytes.Repeat([]byte{0xEE}, 64)
	probes := []struct {
		name string
		addr securemem.HomeAddr
		n    int
	}{
		{"sibling slice", 9 * 4096, 64},
		{"straddle out the top", securemem.HomeAddr(8*4096 - 32), 64},
		{"far out of pool", 1 << 40, 64},
		{"length overflow", 0, 0}, // patched below: huge length via buf
	}
	for _, pr := range probes {
		buf := append([]byte(nil), sentinel...)
		if pr.n == 0 {
			// Whole-slice-plus-one read: length pushes past the slice end.
			buf = make([]byte, 8*4096+1)
			copy(buf, sentinel)
		}
		err := a.Read(pr.addr, buf)
		if !errors.Is(err, ErrTenantDenied) {
			t.Fatalf("%s: got %v, want ErrTenantDenied", pr.name, err)
		}
		if !bytes.Equal(buf[:len(sentinel)], sentinel) {
			t.Fatalf("%s: denied read mutated the caller buffer", pr.name)
		}
		if werr := a.Write(pr.addr, buf); !errors.Is(werr, ErrTenantDenied) {
			t.Fatalf("%s write: got %v, want ErrTenantDenied", pr.name, werr)
		}
	}

	// The denials changed nothing in b's domain.
	got := make([]byte, len(secret))
	if err := b.Read(9*4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("sibling bytes changed by denied probes")
	}
	ops := a.Stats()
	if ops.Denied == 0 {
		t.Fatal("denials not counted")
	}
}

// TestKeyDomainsDistinct proves two tenants never share key material:
// identical plaintext at identical slice-relative addresses yields
// different ciphertext in the shared pool, and the domain fingerprints
// differ.
func TestKeyDomainsDistinct(t *testing.T) {
	p := newTestPool(t)
	a, b := tn(t, p, "a"), tn(t, p, "b")
	if a.Domain() == b.Domain() {
		t.Fatal("tenant key domains not distinct")
	}

	msg := bytes.Repeat([]byte("same plaintext! "), 2) // one full sector
	if err := a.Write(0, msg); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(8*4096, msg); err != nil { // same slice-relative addr 0
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	ctA := append([]byte(nil), poolHome(p)[0:32]...)
	ctB := append([]byte(nil), poolHome(p)[8*4096:8*4096+32]...)
	if bytes.Equal(ctA, ctB) {
		t.Fatal("identical ciphertext across tenants: key domains are shared")
	}
	if bytes.Contains(poolHome(p), msg[:16]) {
		t.Fatal("plaintext visible in shared pool")
	}
}

// poolHome exposes the raw shared home bytes for test assertions.
func poolHome(p *Pool) []byte { return p.backing.Home }

// TestSplicedSiblingCiphertextRejected replays b's ciphertext into a's
// slice via raw pool access and proves a's engine refuses it typed —
// the cross-domain replay yields ErrIntegrity, never b's plaintext.
func TestSplicedSiblingCiphertextRejected(t *testing.T) {
	p := newTestPool(t)
	a, b := tn(t, p, "a"), tn(t, p, "b")

	secret := bytes.Repeat([]byte("sibling secret!!"), 2)
	if err := b.Write(8*4096, secret); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(0, bytes.Repeat([]byte{0x11}, 32)); err != nil {
		t.Fatal(err)
	}
	// Park both tenants' state in the home tier, then replay b's first
	// ciphertext sector over a's.
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.SpliceHome(0, 8*4096, 32); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	err := a.Read(0, buf)
	if !errors.Is(err, securemem.ErrIntegrity) {
		t.Fatalf("spliced read: got %v, want ErrIntegrity", err)
	}
	if bytes.Contains(buf, []byte("sibling secret")) {
		t.Fatal("cross-tenant replay leaked sibling plaintext")
	}
	if got := a.Stats(); got.Integrity == 0 {
		t.Fatal("integrity refusal not counted")
	}

	// Out-of-pool splices are refused typed.
	if err := p.SpliceHome(1<<40, 0, 32); !errors.Is(err, securemem.ErrOutOfRange) {
		t.Fatalf("out-of-pool splice: got %v", err)
	}
}

// TestQuotaStormTyped drives a tenant past its admission quota and pins
// the typed refusal, the deterministic duty cycle, and that a sibling
// with no quota is unaffected.
func TestQuotaStormTyped(t *testing.T) {
	p := newTestPool(t,
		Slice{ID: "limited", BasePage: 0, Pages: 8, Frames: 2, OpRate: 0.5, OpBurst: 4},
		Slice{ID: "free", BasePage: 8, Pages: 8, Frames: 2},
	)
	lim, free := tn(t, p, "limited"), tn(t, p, "free")

	buf := make([]byte, 16)
	admitted, denied := 0, 0
	for i := 0; i < 64; i++ {
		err := lim.Read(0, buf)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQuota):
			denied++
		default:
			t.Fatalf("op %d: unexpected %v", i, err)
		}
	}
	if denied == 0 {
		t.Fatal("quota storm never hit ErrQuota")
	}
	// Burst 4 + 0.5/attempt over 64 attempts admits ~36 ops.
	if admitted < 30 || admitted > 40 {
		t.Fatalf("duty cycle off: %d admitted of 64", admitted)
	}
	ops := lim.Stats()
	if int(ops.Quota) != denied || int(ops.Reads) != admitted {
		t.Fatalf("counters %d/%d disagree with observed %d/%d", ops.Quota, ops.Reads, denied, admitted)
	}

	for i := 0; i < 64; i++ {
		if err := free.Read(8*4096, buf); err != nil {
			t.Fatalf("unlimited sibling refused during storm: %v", err)
		}
	}
}

// TestBlastRadiusCheckpointRecover crashes tenant a (poison storm, then
// recover from its own checkpoint) and proves tenant b's byte state and
// availability never move: independent epochs, independent roots,
// identical sibling digests before and after.
func TestBlastRadiusCheckpointRecover(t *testing.T) {
	p := newTestPool(t)
	a, b := tn(t, p, "a"), tn(t, p, "b")

	msgA := []byte("a's durable state")
	msgB := []byte("b's steady state bytes")
	if err := a.Write(0, msgA); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(8*4096, msgB); err != nil {
		t.Fatal(err)
	}

	storeA := crash.NewMemStore()
	rootA, err := a.Checkpoint(crash.NewJournal(storeA))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Epoch(); got != 0 {
		t.Fatalf("a's checkpoint advanced b's epoch to %d", got)
	}
	digestB := b.StateDigest()

	// Wreck a: poison storm on a's engine only, then divergent writes.
	plan := fault.NewRatePlan(7, fault.Rates{Poison: 1.0}, 4)
	a.AttachFaults(plan, securemem.RetryPolicy{MaxRetries: 0, BaseBackoff: 1, MaxBackoff: 1}, nil)
	junk := make([]byte, 64)
	for i := 0; i < 8; i++ {
		_ = a.Write(securemem.HomeAddr(i*256), junk) // errors expected: a is dying
	}
	a.AttachFaults(nil, securemem.RetryPolicy{}, nil)

	if err := p.RecoverTenant("a", storeA.Bytes(), rootA); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msgA))
	if err := a.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msgA) {
		t.Fatalf("a recovered %q, want %q", got, msgA)
	}
	if a.Stats().Recovers != 1 {
		t.Fatal("recover not counted")
	}

	// b: byte-identical digest, untouched bytes, zero observed failures.
	if b.StateDigest() != digestB {
		t.Fatal("sibling digest moved across a's crash/recover")
	}
	got = make([]byte, len(msgB))
	if err := b.Read(8*4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msgB) {
		t.Fatalf("b read %q, want %q", got, msgB)
	}

	// Recovery against the wrong root is refused typed, not applied: b
	// still reads its own bytes and its digest has not moved.
	if err := p.RecoverTenant("b", storeA.Bytes(), rootA); !errors.Is(err, securemem.ErrFreshness) {
		t.Fatalf("b recovered from a's journal: got %v, want ErrFreshness", err)
	}
	if b.StateDigest() != digestB {
		t.Fatal("refused recovery moved b's digest")
	}
	if err := b.Read(8*4096, got); err != nil || !bytes.Equal(got, msgB) {
		t.Fatalf("b after refused recovery: read %q, err %v", got, err)
	}
}

// TestRefusedRecoverLeavesTenantServing pins the verify-before-write
// order of a tenant recovery: a journal and root that fail verification
// (here a sibling's, refused ErrFreshness) must not write a byte of the
// live tenant's shared backing window, so every page it holds still
// reads back and verifies — including pages never written, which hold
// the initial encryption.
func TestRefusedRecoverLeavesTenantServing(t *testing.T) {
	p := newTestPool(t)
	a, b := tn(t, p, "a"), tn(t, p, "b")
	if err := a.Write(0, []byte("a's state")); err != nil {
		t.Fatal(err)
	}
	want := map[securemem.HomeAddr][]byte{}
	for page := 8; page < 16; page += 3 {
		addr := securemem.HomeAddr(page*4096 + 200)
		want[addr] = bytes.Repeat([]byte{byte(page)}, 40)
		if err := b.Write(addr, want[addr]); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint b so its home tier is current and its digest stable.
	if _, err := b.Checkpoint(crash.NewJournal(crash.NewMemStore())); err != nil {
		t.Fatal(err)
	}
	storeA := crash.NewMemStore()
	rootA, err := a.Checkpoint(crash.NewJournal(storeA))
	if err != nil {
		t.Fatal(err)
	}
	digestB := b.StateDigest()

	if err := p.RecoverTenant("b", storeA.Bytes(), rootA); !errors.Is(err, securemem.ErrFreshness) {
		t.Fatalf("b recovered from a's journal: got %v, want ErrFreshness", err)
	}
	if b.Stats().Recovers != 0 {
		t.Fatal("refused recovery counted")
	}
	if b.StateDigest() != digestB {
		t.Fatal("refused recovery moved b's digest")
	}
	got := make([]byte, 40)
	for addr, data := range want {
		if err := b.Read(addr, got); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("b @%d after refused recovery: read %q, err %v", addr, got, err)
		}
	}
	for page := 9; page < 16; page += 3 {
		if err := b.Read(securemem.HomeAddr(page*4096), got); err != nil {
			t.Fatalf("b untouched page %d after refused recovery: %v", page, err)
		}
	}
}

// TestConfigValidationTyped spot-checks the typed slice-layout
// rejections.
func TestConfigValidationTyped(t *testing.T) {
	geo := testGeometry()
	cases := []struct {
		name   string
		slices []Slice
	}{
		{"empty", nil},
		{"zero pages", []Slice{{ID: "a", Pages: 0, Frames: 1}}},
		{"zero frames", []Slice{{ID: "a", Pages: 4, Frames: 0}}},
		{"frames exceed pages", []Slice{{ID: "a", Pages: 2, Frames: 3}}},
		{"duplicate id", []Slice{{ID: "a", Pages: 4, Frames: 1}, {ID: "a", BasePage: 4, Pages: 4, Frames: 1}}},
		{"overlap", []Slice{{ID: "a", Pages: 4, Frames: 1}, {ID: "b", BasePage: 2, Pages: 4, Frames: 1}}},
		{"rate without burst", []Slice{{ID: "a", Pages: 4, Frames: 1, OpRate: 1}}},
	}
	for _, c := range cases {
		if _, err := NewPool(Config{Geometry: geo, Slices: c.slices}); !errors.Is(err, ErrSliceConfig) {
			t.Errorf("%s: got %v, want ErrSliceConfig", c.name, err)
		}
	}

	// Auto placement fills gaps without overlap.
	p, err := NewPool(Config{Geometry: geo, Slices: []Slice{
		{ID: "fixed", BasePage: 4, Pages: 4, Frames: 1},
		{ID: "auto1", BasePage: AutoBase, Pages: 4, Frames: 1},
		{ID: "auto2", BasePage: AutoBase, Pages: 4, Frames: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	seenBase := map[securemem.HomeAddr]bool{}
	for _, ten := range p.Tenants() {
		if seenBase[ten.Base()] {
			t.Fatalf("two tenants share base %d", ten.Base())
		}
		seenBase[ten.Base()] = true
	}
	if p.TotalPages() != 12 {
		t.Fatalf("pool pages = %d, want 12", p.TotalPages())
	}
}

// TestParseSlices pins the spec grammar round trip and its typed
// failures.
func TestParseSlices(t *testing.T) {
	got, err := ParseSlices("a:0+16/4,b:auto+8/2@0.5/8")
	if err != nil {
		t.Fatal(err)
	}
	want := []Slice{
		{ID: "a", BasePage: 0, Pages: 16, Frames: 4},
		{ID: "b", BasePage: AutoBase, Pages: 8, Frames: 2, OpRate: 0.5, OpBurst: 8},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d slices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{
		"", "a", "a:", "a:+4/1", "a:0+/1", "a:0+4", "a:0+4/", "a:x+4/1",
		"a:0+99999999999999999999/1", "a:0+4/1@1", "a:0+4/1@x/1", ":0+4/1",
		"a:0+-4/1", "a:0+4/1@-1/2", "a:0+4/1@NaN/2",
	} {
		if _, err := ParseSlices(bad); !errors.Is(err, ErrSliceConfig) {
			t.Errorf("ParseSlices(%q): got %v, want ErrSliceConfig", bad, err)
		}
	}
}
