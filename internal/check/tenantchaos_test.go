package check

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/salus-sim/salus/internal/securemem"
)

// TestTenantCampaignSmoke runs a trimmed hostile-tenant campaign and
// requires a clean PASS: typed denials only, zero cross-tenant leaks,
// healthy-tenant SLO held.
func TestTenantCampaignSmoke(t *testing.T) {
	plan := DefaultTenantPlan()
	plan.Seeds = 3
	plan.OpsPerWorker = 40
	res := Run(plan)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.SeedsRun != plan.Seeds {
		t.Fatalf("ran %d seeds, want %d", res.SeedsRun, plan.Seeds)
	}
	if res.HostileProbes == 0 || res.TypedDenials == 0 {
		t.Fatalf("campaign drove no hostile probes (%d probes, %d denials)", res.HostileProbes, res.TypedDenials)
	}
	if res.ReplayAttacks == 0 || res.ReplayRefusals != res.ReplayAttacks {
		t.Fatalf("replay attacks %d, refusals %d: every splice must be refused", res.ReplayAttacks, res.ReplayRefusals)
	}
	if res.QuotaRefusals == 0 {
		t.Fatal("quota storms never hit ErrQuota")
	}
	if res.Crashes == 0 && res.Outages == 0 && res.Checkpoints == 0 {
		t.Fatal("chaos driver never fired")
	}
	if res.Availability(roleVictim) < plan.VictimSLO || res.Availability(roleBystander) < plan.VictimSLO {
		t.Fatalf("healthy availability %.4f/%.4f below floor %.4f",
			res.Availability(roleVictim), res.Availability(roleBystander), plan.VictimSLO)
	}
	table := res.Table()
	for _, col := range []string{"tenant", "denied", "quota", "recovers"} {
		if !strings.Contains(table, col) {
			t.Fatalf("aggregate table missing column %q:\n%s", col, table)
		}
	}
	for _, row := range []string{roleVictim, roleBystander, roleAttacker} {
		if !strings.Contains(table, row) {
			t.Fatalf("aggregate table missing tenant %q:\n%s", row, table)
		}
	}
}

// TestTenantCampaignDeterministic pins the deterministic surface: the
// chaos event schedule and the structural counters (op attempts,
// hostile probes, typed denials, replays) are pure functions of the
// seed. Which individual op a shared quota token admits is
// interleaving-dependent by design, so per-category splits like
// QuotaRefusals are deliberately not pinned.
func TestTenantCampaignDeterministic(t *testing.T) {
	plan := DefaultTenantPlan()
	plan.Seeds = 2
	plan.OpsPerWorker = 30
	a := Run(plan)
	b := Run(plan)
	if len(a.Violations) != 0 || len(b.Violations) != 0 {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
	if a.Ops != b.Ops || a.HostileProbes != b.HostileProbes || a.TypedDenials != b.TypedDenials ||
		a.ReplayAttacks != b.ReplayAttacks || a.Checkpoints != b.Checkpoints ||
		a.Crashes != b.Crashes || a.Outages != b.Outages {
		t.Fatalf("campaign not deterministic:\n%+v\n%+v", a, b)
	}
}

// garbleTenant is a tenant whose every write fails typed after storing
// the complement of the intended bytes: values no write produced.
type garbleTenant struct{ data []byte }

func (g *garbleTenant) Base() securemem.HomeAddr { return 0 }
func (g *garbleTenant) Size() uint64             { return uint64(len(g.data)) }

func (g *garbleTenant) Read(addr securemem.HomeAddr, buf []byte) error {
	copy(buf, g.data[addr:])
	return nil
}

func (g *garbleTenant) Write(addr securemem.HomeAddr, data []byte) error {
	for i, b := range data {
		g.data[int(addr)+i] = ^b
	}
	return securemem.ErrTransient
}

// TestTenantOracleRejectsUnwrittenBytes plants that bug behind a worker:
// a failed write may leave its bytes old or new, never anything else, so
// the worker must flag the garbled bytes rather than adopt them.
func TestTenantOracleRejectsUnwrittenBytes(t *testing.T) {
	g := &garbleTenant{data: make([]byte, 512)}
	w := &tenantWorker{ten: g, role: roleVictim, plan: DefaultTenantPlan(), size: 512, rng: rand.New(rand.NewSource(1))}
	if err := w.init(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		w.honestStep()
	}
	w.verifyFinal()
	if w.faulted == 0 {
		t.Fatal("no write failed; the planted bug never fired")
	}
	got := strings.Join(append(w.violations, w.finalViolations...), "\n")
	if !strings.Contains(got, "divergence") {
		t.Fatalf("garbled bytes after failed writes were adopted silently; violations: %q", got)
	}
}
