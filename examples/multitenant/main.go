// Multi-tenant isolation: carve one shared CXL pool into per-tenant
// key domains and show the blast radius of a hostile or crashing
// tenant is exactly its own slice. Tenant alpha probes, splices, storms
// its quota, gets poisoned, and crash-recovers — and tenant beta's
// bytes never move.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/tenant"
)

func main() {
	geo := config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096}
	pool, err := tenant.NewPool(tenant.Config{
		Geometry: geo,
		Slices: []tenant.Slice{
			{ID: "alpha", BasePage: tenant.AutoBase, Pages: 8, Frames: 2,
				OpRate: 0.5, OpBurst: 4}, // metered: ~1 op admitted per 2 attempts
			{ID: "beta", BasePage: tenant.AutoBase, Pages: 8, Frames: 2},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	alpha := mustTenant(pool, "alpha")
	beta := mustTenant(pool, "beta")

	secret := []byte("beta: payroll row 42, sealed ok!") // one full sector
	if err := beta.Write(beta.Base(), secret); err != nil {
		log.Fatal(err)
	}
	if err := beta.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("step 1 — cross-tenant probe (address containment)")
	buf := make([]byte, 32)
	err = alpha.Read(beta.Base(), buf) // pool-global address of beta's slice
	if !errors.Is(err, tenant.ErrTenantDenied) {
		log.Fatalf("FAILED: probe not denied typed (err=%v)", err)
	}
	fmt.Printf("  refused typed: %v\n\n", err)

	fmt.Println("step 2 — replayed ciphertext (cryptographic containment)")
	// A compromised fabric copies beta's sealed sector into alpha's
	// slice. Alpha's own keys must refuse it: different domain, no MAC.
	if err := pool.SpliceHome(alpha.Base(), beta.Base(), 32); err != nil {
		log.Fatal(err)
	}
	err = alpha.Read(alpha.Base(), buf)
	if !errors.Is(err, securemem.ErrIntegrity) {
		log.Fatalf("FAILED: spliced sector not rejected (err=%v)", err)
	}
	if bytes.Contains(buf, []byte("payroll")) {
		log.Fatal("FAILED: victim plaintext leaked into attacker buffer")
	}
	fmt.Printf("  rejected by alpha's key domain: %v\n\n", err)

	fmt.Println("step 3 — quota storm (capacity containment)")
	quotaHits := 0
	for i := 0; i < 32; i++ {
		if err := alpha.Write(alpha.Base()+4096, bytes.Repeat([]byte{0xA1}, 32)); errors.Is(err, tenant.ErrQuota) {
			quotaHits++
		}
	}
	if quotaHits == 0 {
		log.Fatal("FAILED: metered tenant never hit its quota")
	}
	if err := beta.Read(beta.Base(), buf); err != nil || !bytes.Equal(buf, secret) {
		log.Fatalf("FAILED: beta disturbed by alpha's storm (err=%v)", err)
	}
	fmt.Printf("  alpha refused %d/32 ops typed; beta served untouched\n\n", quotaHits)

	fmt.Println("step 4 — checkpoint alpha, then wreck it mid-traffic")
	// A full-sector write repairs the sector the splice corrupted: the
	// engine reseals it under alpha's keys without a verify-fetch.
	if err := writeAlpha(alpha, uint64(alpha.Base()), []byte("alpha: committed state, epoch 1!")); err != nil {
		log.Fatal(err)
	}
	store := crash.NewMemStore()
	root, err := alpha.Checkpoint(crash.NewJournal(store))
	if err != nil {
		log.Fatal(err)
	}
	// Transient-fault storm on alpha only: every media error is typed,
	// then the slice is rebuilt from its own journal while beta keeps
	// serving.
	alpha.AttachFaults(fault.NewRatePlan(7, fault.Rates{Transient: 0.8}, 3),
		securemem.RetryPolicy{MaxRetries: 0, BaseBackoff: 1, MaxBackoff: 1}, nil)
	wrecked := 0
	for i := 0; i < 24; i++ {
		if err := writeAlpha(alpha, uint64(alpha.Base())+uint64(i%4)*64, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			wrecked++
		}
	}
	if err := beta.Write(beta.Base()+2*4096, bytes.Repeat([]byte{0xB2}, 32)); err != nil {
		log.Fatalf("FAILED: beta write failed during alpha's storm: %v", err)
	}
	betaBefore := beta.StateDigest() // beta's state going into alpha's recovery
	if err := pool.RecoverTenant("alpha", store.Bytes(), root); err != nil {
		log.Fatal(err)
	}
	if err := readAlpha(alpha, buf); err != nil || !bytes.HasPrefix(buf, []byte("alpha: committed")) {
		log.Fatalf("FAILED: alpha not restored to its checkpoint (err=%v)", err)
	}
	fmt.Printf("  %d alpha ops failed typed under the storm; alpha recovered to epoch %d\n\n",
		wrecked, alpha.Epoch())

	fmt.Println("step 5 — blast radius: beta is byte-identical")
	if beta.StateDigest() != betaBefore {
		log.Fatal("FAILED: beta's state digest moved during alpha's crash cycle")
	}
	if err := beta.Read(beta.Base(), buf); err != nil || !bytes.Equal(buf, secret) {
		log.Fatalf("FAILED: beta's secret changed (err=%v)", err)
	}
	// Cross-domain recovery is refused too: beta cannot be "restored"
	// from alpha's journal.
	betaBefore = beta.StateDigest()
	if err := pool.RecoverTenant("beta", store.Bytes(), root); err == nil {
		log.Fatal("FAILED: beta accepted alpha's recovery journal")
	}
	// The refusal happens before recovery writes a byte: beta still
	// serves its own state.
	if beta.StateDigest() != betaBefore {
		log.Fatal("FAILED: the refused recovery moved beta's state digest")
	}
	if err := beta.Read(beta.Base(), buf); err != nil || !bytes.Equal(buf, secret) {
		log.Fatalf("FAILED: beta unreadable after the refused recovery (err=%v)", err)
	}
	fmt.Println("  beta untouched; foreign journal refused typed")
	fmt.Println("\nall containment properties held")
}

func mustTenant(p *tenant.Pool, id string) *tenant.Tenant {
	t, err := p.Tenant(id)
	if err != nil {
		log.Fatal(err)
	}
	return t
}

// writeAlpha retries through alpha's own quota refusals (the bucket
// refills per attempt) so the storm exercises media faults, not the
// meter.
func writeAlpha(t *tenant.Tenant, addr uint64, data []byte) error {
	var err error
	for i := 0; i < 8; i++ {
		if err = t.Write(securemem.HomeAddr(addr), data); !errors.Is(err, tenant.ErrQuota) {
			return err
		}
	}
	return err
}

// readAlpha reads alpha's first sector with the same quota-riding retry.
func readAlpha(t *tenant.Tenant, buf []byte) error {
	var err error
	for i := 0; i < 8; i++ {
		if err = t.Read(t.Base(), buf); !errors.Is(err, tenant.ErrQuota) {
			return err
		}
	}
	return err
}
