package check

import (
	"strings"
	"testing"
)

// TestMigrateCampaignSmoke runs a trimmed live-migration campaign and
// requires a clean PASS: every honest migration oracle-verified, every
// injected attack refused typed, every crash cut leaving the
// destination pristine, the link-loss session resumed to completion,
// and every bystander untouched.
func TestMigrateCampaignSmoke(t *testing.T) {
	plan := DefaultMigratePlan()
	plan.Seeds = 2
	plan.WriteBursts = 12
	plan.ServeSpan = 24
	res := Run(plan)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.SeedsRun != plan.Seeds {
		t.Fatalf("ran %d seeds, want %d", res.SeedsRun, plan.Seeds)
	}
	// Four honest migrations per seed: differential-oracle, under-load
	// cutover, tape recording, link-loss resume.
	if want := 4 * plan.Seeds; res.Migrations != want {
		t.Fatalf("completed %d migrations, want %d", res.Migrations, want)
	}
	if res.Attacks == 0 || res.TypedRejections != res.Attacks {
		t.Fatalf("attacks %d, typed rejections %d: every attack must be refused typed",
			res.Attacks, res.TypedRejections)
	}
	if res.CrashCuts == 0 {
		t.Fatal("no crash cuts enumerated")
	}
	if res.Resumes == 0 || res.Retries == 0 {
		t.Fatalf("link chaos never exercised resume (%d resumes, %d retries)", res.Resumes, res.Retries)
	}
	if res.Destroyed != plan.Seeds {
		t.Fatalf("retired %d source identities, want %d", res.Destroyed, plan.Seeds)
	}
	if res.ServeRequests == 0 {
		t.Fatal("cutover-under-load phase served no requests")
	}
	table := res.Table()
	for _, col := range []string{"tenant", "rounds", "skipped", "resumes", "torn", "attest"} {
		if !strings.Contains(table, col) {
			t.Fatalf("aggregate table missing column %q:\n%s", col, table)
		}
	}
	if !strings.Contains(table, roleMigrant) {
		t.Fatalf("aggregate table missing tenant %q:\n%s", roleMigrant, table)
	}
}

// TestMigrateCampaignDeterministic pins the deterministic surface: the
// stream schedule, attack enumeration, and counters are pure functions
// of the seed. The serve phase's realised request count depends on the
// client/migration interleaving by design, so it is not pinned.
func TestMigrateCampaignDeterministic(t *testing.T) {
	plan := DefaultMigratePlan()
	plan.Seeds = 1
	plan.WriteBursts = 10
	plan.ServeSpan = 16
	a := Run(plan)
	b := Run(plan)
	if len(a.Violations) != 0 || len(b.Violations) != 0 {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
	if a.Migrations != b.Migrations || a.Attacks != b.Attacks ||
		a.TypedRejections != b.TypedRejections || a.CrashCuts != b.CrashCuts ||
		a.Resumes != b.Resumes || a.Retries != b.Retries || a.Destroyed != b.Destroyed {
		t.Fatalf("campaign not deterministic:\n%+v\n%+v", a, b)
	}
}
