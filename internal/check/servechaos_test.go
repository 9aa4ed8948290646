package check

import (
	"strings"
	"testing"

	"github.com/salus-sim/salus/internal/serve"
)

// TestServeChaosSmoke runs a short combined-chaos campaign: concurrent
// client fleets under simultaneous transient faults, link outages, and
// crash/recover cycles. It must come back with zero violations and must
// actually have exercised each chaos family.
func TestServeChaosSmoke(t *testing.T) {
	plan := DefaultServePlan()
	plan.Seeds = 3
	if testing.Short() {
		plan.Seeds = 1
	}
	res := Run(plan)
	if res.Failed() {
		t.Fatalf("combined-chaos campaign failed:\n  %s", strings.Join(res.Violations, "\n  "))
	}
	if res.SeedsRun != plan.Seeds {
		t.Fatalf("seeds run = %d, want %d", res.SeedsRun, plan.Seeds)
	}
	if want := plan.Seeds * plan.Clients * plan.OpsPerClient; res.Ops != want {
		t.Fatalf("ops = %d, want %d", res.Ops, want)
	}
	if res.Outages == 0 {
		t.Fatal("campaign injected no link outages")
	}
	if res.Checkpoints == 0 {
		t.Fatal("campaign committed no checkpoints")
	}
	if !testing.Short() && res.Crashes == 0 {
		t.Fatal("campaign survived no crash/recover cycles")
	}
	// The histograms behind the -report quantiles must have data.
	if res.Aggregate.Latency[serve.Interactive].Count() == 0 {
		t.Fatal("interactive latency histogram is empty")
	}
}

// TestServeChaosHealthyBaseline disables every chaos family: the
// interactive class must then serve everything (availability exactly 1)
// and no byte may end the session write-ambiguous.
func TestServeChaosHealthyBaseline(t *testing.T) {
	plan := DefaultServePlan()
	plan.Seeds = 2
	plan.EventEvery = 0
	plan.TransientRate = 0
	res := Run(plan)
	if res.Failed() {
		t.Fatalf("healthy baseline failed:\n  %s", strings.Join(res.Violations, "\n  "))
	}
	if got := res.Aggregate.Availability(serve.Interactive); got != 1 {
		t.Fatalf("healthy interactive availability = %.4f, want 1", got)
	}
	if res.TaintedBytes != 0 {
		t.Fatalf("healthy run left %d tainted bytes", res.TaintedBytes)
	}
	if res.Outages != 0 || res.Crashes != 0 {
		t.Fatalf("healthy run injected chaos: %d outages, %d crashes", res.Outages, res.Crashes)
	}
}

// TestServeChaosSLOEnforced pins that the SLO floor is a real assertion:
// an impossible floor must turn an otherwise clean campaign into a
// failure typed as an SLO miss.
func TestServeChaosSLOEnforced(t *testing.T) {
	plan := DefaultServePlan()
	plan.Seeds = 1
	plan.SLO[serve.Bulk] = 1.01 // unattainable by construction
	res := Run(plan)
	if !res.Failed() {
		t.Fatal("impossible SLO floor did not fail the campaign")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "SLO miss") && strings.Contains(v, "bulk") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations carry no bulk SLO miss: %v", res.Violations)
	}
}
