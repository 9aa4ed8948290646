// Command salus-check runs the differential model-equivalence checker: it
// replays seeded randomized operation sequences against every protection
// model plus a plain in-memory oracle, asserting plaintext equivalence and
// the Salus security invariants after every operation.
//
// Usage:
//
//	salus-check                          # CI smoke budget (25 seeds × 200 ops)
//	salus-check -seeds 100 -ops 500      # a deeper campaign
//	salus-check -seed 42 -seeds 1 -v     # replay one seed, with progress
//	salus-check -model salus             # restrict the model set
//	salus-check -chaos recoverable       # inject transient link faults
//	salus-check -chaos unrecoverable     # also inject uncorrectable media errors
//	salus-check -crash                   # power-loss injection on the checkpoint journal
//	salus-check -link                    # CXL link flaps + degraded-mode verification
//	salus-check -link -linkplan down@40..70 -queuecap 4
//	salus-check -serve                   # combined-chaos service campaign
//	salus-check -serve -seeds 50 -clients 21 -ops 60
//	salus-check -tenant                  # hostile-tenant isolation campaign
//	salus-check -tenant -seeds 50 -workers 3 -ops 70
//	salus-check -migrate                 # attested live-migration campaign
//	salus-check -migrate -seeds 50 -v
//
// Chaos mode arms every model with a deterministic fault injector. Under a
// recoverable plan the replay still demands byte-identical plaintext; under
// an unrecoverable plan every fault must surface as a typed error or
// quarantine — a silent divergence fails the run either way.
//
// Link mode (exclusive with -chaos and -crash, Salus-only) replays every
// seed under a set of deterministic CXL link flap plans — scripted outage
// windows, brownout latency, and rate-driven episodes — asserting the
// degraded-mode contract: device-resident hits keep serving, every refused
// op fails with a typed link error, parked writebacks all drain on
// recovery, the post-drain state is byte-identical to a no-outage run, and
// a home-tier rollback staged during an outage is detected on drain.
//
// Serve mode (exclusive with the others, Salus-only) runs the
// traffic-service campaign: per seed, a fleet of concurrent client
// streams drives a serve.Server while transient faults, link outages,
// and crash/recover cycles land mid-traffic simultaneously. It asserts
// that every rejection is typed, that no read ever silently diverges
// from the per-client oracles, that outcomes conserve, and that the
// per-class availability SLO floors hold on the campaign aggregate.
//
// Tenant mode (exclusive with the others, Salus-only) runs the
// cross-tenant leak campaign: three tenants — a victim, a bystander,
// and an attacker — share one pool through per-tenant key domains and
// address-space slices. The attacker mixes honest traffic with
// slice-straddling probes, replayed sibling ciphertext, and
// quota-pressure storms while transient faults, link outages, and
// crash/recover cycles land on its domain alone. It asserts that every
// hostile probe is refused typed (never bytes), that no sibling byte
// ever moves, that per-tenant differential oracles stay byte-identical,
// and that the healthy tenants' availability holds the SLO floor even
// while the attacker's domain is deliberately wrecked.
//
// Migrate mode (exclusive with the others, Salus-only) runs the
// attested live-migration campaign: per seed an honest migration is
// held to a differential oracle against a no-migration control run, a
// second migration cuts over under live serve traffic inside a
// quiesced engine swap, a man-in-the-middle phase replays a recorded
// stream tape with every mutation class at every record boundary
// against fresh destinations, endpoint crashes are simulated at every
// stream boundary, a scripted link outage must park the session typed
// and resumable and then complete without re-streaming verified
// chunks, and the migrated-away source identity is destroyed (keys
// zeroized, frames reclaimed). Every attack must be refused with a
// typed migrate error while the source keeps serving, the destination
// is never left half-applied, and bystander tenants on every pool
// never move a byte.
//
// Crash mode (exclusive with -chaos, Salus-only) journals incremental
// checkpoints of a generated workload onto a write/sync tape, then cuts
// power at every event boundary under every damage mode and recovers with
// the trusted root the TCB would have held at that instant. Honest cuts
// must reconstruct the last committed epoch byte-identically; a corrupted
// synced region must surface as a typed torn-checkpoint or rollback error;
// a replayed stale journal must be rejected as a rollback.
//
// Every campaign runs on the same seed runner (check.Run) and honours a
// fixed set of flags, listed in the campaigns table below; -v applies to
// all of them. Setting a flag the selected campaign does not honour, or
// selecting two campaigns, is a usage error (exit 2), never silently
// ignored.
//
// On a violation it exits non-zero. A shrinkable campaign (differential,
// crash, link) prints the shrunk minimal reproducer both as an op listing
// and as a ready-to-commit Go regression test; the others print every
// violation of the failing seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/salus-sim/salus/internal/check"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/metrics"
	"github.com/salus-sim/salus/internal/securemem"
)

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed flags; set names the ones given explicitly.
type options struct {
	seeds, ops, pages, devPages, clients, workers, queueCap int
	seed                                                    int64
	chaos, linkPlan                                         string
	models                                                  []securemem.Model
	verbose                                                 func(string)
	set                                                     map[string]bool
}

// campaign is one row of the mode table: the boolean flag selecting it
// ("" for the differential default), the flags it honours besides -v,
// and its runner, which returns the exit code.
type campaign struct {
	mode    string
	honours []string
	run     func(o *options, stdout io.Writer) int
}

var campaigns = []campaign{
	{"", []string{"seeds", "ops", "seed", "model", "pages", "devpages", "chaos"}, runDiff},
	{"crash", []string{"seeds", "ops", "seed", "pages", "devpages"}, runCrash},
	{"link", []string{"seeds", "ops", "seed", "pages", "devpages", "queuecap", "linkplan"}, runLink},
	{"serve", []string{"seeds", "ops", "seed", "pages", "devpages", "queuecap", "clients"}, runServe},
	{"tenant", []string{"seeds", "ops", "seed", "pages", "devpages", "queuecap", "workers"}, runTenant},
	{"migrate", []string{"seeds", "seed", "pages", "devpages", "queuecap"}, runMigrate},
}

// parseModels turns a comma-separated model list into securemem models.
func parseModels(spec string) ([]securemem.Model, error) {
	var models []securemem.Model
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "none":
			models = append(models, securemem.ModelNone)
		case "conventional":
			models = append(models, securemem.ModelConventional)
		case "salus":
			models = append(models, securemem.ModelSalus)
		case "":
		default:
			return nil, fmt.Errorf("unknown model %q (want none, conventional, salus)", name)
		}
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("empty model list")
	}
	return models, nil
}

// appMain is the testable entry point.
func appMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salus-check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := check.DefaultConfig()
	var o options
	fs.IntVar(&o.seeds, "seeds", def.Seeds, "number of seeds to run")
	fs.IntVar(&o.ops, "ops", def.Ops, "operations per seed (per client with -serve, per worker with -tenant)")
	fs.Int64Var(&o.seed, "seed", def.FirstSeed, "first seed (seeds cover [seed, seed+seeds))")
	model := fs.String("model", "none,conventional,salus", "comma-separated models to check differentially")
	fs.IntVar(&o.pages, "pages", def.TotalPages, "home (CXL) pages in the checked address space (per tenant with -tenant and -migrate)")
	fs.IntVar(&o.devPages, "devpages", def.DevicePages, "device frames (< pages forces eviction churn)")
	fs.StringVar(&o.chaos, "chaos", "", "fault plan: recoverable (transient link faults) or unrecoverable (plus media errors)")
	modes := map[string]*bool{
		"crash":   fs.Bool("crash", false, "power-loss injection: enumerate every crash point of the checkpoint journal (Salus-only)"),
		"link":    fs.Bool("link", false, "CXL link chaos: replay every seed under deterministic flap plans and verify degraded-mode operation (Salus-only)"),
		"serve":   fs.Bool("serve", false, "combined-chaos service campaign: concurrent client fleets under faults + link flaps + crash/recover at once (Salus-only)"),
		"tenant":  fs.Bool("tenant", false, "hostile-tenant isolation campaign: victim/bystander/attacker domains over one pool, cross-tenant probes and chaos on the attacker only (Salus-only)"),
		"migrate": fs.Bool("migrate", false, "attested live-migration campaign: differential-oracle migrations, MITM tape attacks at every record boundary, endpoint crashes, link-loss resume, source retirement (Salus-only)"),
	}
	fs.IntVar(&o.clients, "clients", 0, "with -serve: concurrent client streams per seed (0 = campaign default)")
	fs.IntVar(&o.workers, "workers", 0, "with -tenant: worker streams per tenant (0 = campaign default)")
	fs.StringVar(&o.linkPlan, "linkplan", "", "with -link: a single link plan spec (see internal/link.ParsePlan) replacing the default plan set")
	fs.IntVar(&o.queueCap, "queuecap", 0, "with -link, -serve, -tenant, -migrate: dirty-writeback queue capacity (0 = campaign default)")
	verbose := fs.Bool("v", false, "print per-seed progress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "salus-check: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "salus-check: "+format+"\n", a...)
		return 2
	}

	c := campaigns[0]
	for _, cand := range campaigns[1:] {
		if *modes[cand.mode] {
			if c.mode != "" {
				return usage("-%s and -%s are exclusive", c.mode, cand.mode)
			}
			c = cand
		}
	}
	o.set = map[string]bool{}
	stray := ""
	fs.Visit(func(f *flag.Flag) {
		o.set[f.Name] = true
		if stray == "" && modes[f.Name] == nil && f.Name != "v" && !slices.Contains(c.honours, f.Name) {
			stray = f.Name
		}
	})
	if stray != "" {
		name := "the differential campaign"
		if c.mode != "" {
			name = "-" + c.mode
		}
		return usage("-%s is not honoured by %s (it honours -%s and -v)", stray, name, strings.Join(c.honours, ", -"))
	}

	var err error
	if o.models, err = parseModels(*model); err != nil {
		return usage("%v", err)
	}
	if o.seeds < 1 || o.ops < 1 || o.pages < 1 || o.devPages < 1 || o.devPages > o.pages {
		return usage("-seeds, -ops, -pages, -devpages must be positive and -devpages <= -pages")
	}
	if o.chaos != "" && o.chaos != "recoverable" && o.chaos != "unrecoverable" {
		return usage("-chaos must be empty, recoverable, or unrecoverable (got %q)", o.chaos)
	}
	if o.linkPlan != "" {
		if _, err := link.ParsePlan(o.linkPlan); err != nil {
			return usage("-linkplan: %v", err)
		}
	}
	if *verbose {
		o.verbose = func(s string) { fmt.Fprintln(stderr, s) }
	}
	return c.run(&o, stdout)
}

// seedRange returns the flags' seed range.
func (o *options) seedRange() check.SeedRange {
	return check.SeedRange{Seeds: o.seeds, FirstSeed: o.seed, Verbose: o.verbose}
}

// override copies each explicitly set flag into the campaign default it
// names, leaving the rest of the plan's defaults alone.
func (o *options) override(sr *check.SeedRange, fields map[string]*int) {
	sr.Verbose = o.verbose
	if o.set["seeds"] {
		sr.Seeds = o.seeds
	}
	if o.set["seed"] {
		sr.FirstSeed = o.seed
	}
	for name, v := range map[string]int{"ops": o.ops, "pages": o.pages, "devpages": o.devPages,
		"clients": o.clients, "workers": o.workers, "queuecap": o.queueCap} {
		if dst := fields[name]; dst != nil && o.set[name] && v > 0 {
			*dst = v
		}
	}
}

// failed prints a failed campaign's report: the failure with, when a
// sequence reproduces it, its shrunk reproducer; or every violation of
// the failing seed.
func failed(w io.Writer, name string, v *check.Verdict) bool {
	head := "salus-check: " + name + "FAIL"
	if f := v.Failure; f != nil {
		fmt.Fprintf(w, "%s: %s\n", head, f)
		if f.Replayer == nil {
			return true
		}
		fmt.Fprintf(w, "\nminimal reproducer (%d ops):\n", len(f.Seq.Ops))
		for i, op := range f.Seq.Ops {
			fmt.Fprintf(w, "  %3d: %v\n", i, op)
		}
		fmt.Fprintf(w, "\nregression test:\n\n%s", f.GoTest(fmt.Sprintf("seed%d", f.Seq.Seed)))
		return true
	}
	if len(v.Violations) > 0 {
		fmt.Fprintf(w, "%s: %d violations after %d seeds\n", head, len(v.Violations), v.SeedsRun)
		for _, s := range v.Violations {
			fmt.Fprintf(w, "  %s\n", s)
		}
		return true
	}
	return false
}

func runDiff(o *options, stdout io.Writer) int {
	cfg := check.DefaultConfig()
	cfg.SeedRange, cfg.Ops, cfg.Models = o.seedRange(), o.ops, o.models
	cfg.TotalPages, cfg.DevicePages = o.pages, o.devPages
	if o.chaos != "" {
		cfg = check.ChaosConfig(cfg, o.chaos == "unrecoverable")
	}
	res := check.Run(cfg)
	if failed(stdout, "", &res.Verdict) {
		return 1
	}
	fmt.Fprintf(stdout, "salus-check: PASS: %d seeds, %d ops, %d models, no divergence\n",
		res.SeedsRun, res.OpsRun, len(o.models))
	if f := res.Faults; o.chaos != "" {
		fmt.Fprintf(stdout, "salus-check: chaos (%s): %d transient (%d retries, %d backoff cycles), %d poison, %d stuck-bit; recovered %d, quarantined %d frames / %d chunks, pinned %d pages\n",
			o.chaos, f.TransientFaults, f.Retries, f.RetryBackoffCycles,
			f.PoisonFaults, f.StuckBitFaults, f.TransparentRecoveries,
			f.FramesQuarantined, f.ChunksPoisoned, f.PagesPinned)
	}
	return 0
}

func runCrash(o *options, stdout io.Writer) int {
	plan := check.DefaultCrashPlan()
	plan.SeedRange, plan.Ops = o.seedRange(), o.ops
	plan.TotalPages, plan.DevicePages = o.pages, o.devPages
	res := check.Run(plan)
	if failed(stdout, "crash ", &res.Verdict) {
		return 1
	}
	fmt.Fprintf(stdout, "salus-check: crash PASS: %d seeds, %d ops, %d epochs committed, %d cuts enumerated: %d recovered byte-identical, %d corruptions detected typed\n",
		res.SeedsRun, res.OpsRun, res.Epochs, res.Cuts, res.Recoveries, res.Detected)
	return 0
}

func runLink(o *options, stdout io.Writer) int {
	plan := check.DefaultLinkPlan()
	plan.SeedRange, plan.Ops = o.seedRange(), o.ops
	plan.TotalPages, plan.DevicePages = o.pages, o.devPages
	if o.queueCap > 0 {
		plan.QueueCap = o.queueCap
	}
	if o.linkPlan != "" {
		plan.Plans = []check.NamedLinkPlan{{Name: "custom", Spec: o.linkPlan}}
	}
	res := check.Run(plan)
	if failed(stdout, "link ", &res.Verdict) {
		return 1
	}
	fmt.Fprintf(stdout, "salus-check: link PASS: %d seeds × %d plans, %d ops, %d flaps, %d rollback probes detected\n",
		res.SeedsRun, len(plan.Plans), res.OpsRun, res.Flaps, res.RollbackProbes)
	fmt.Fprintf(stdout, "salus-check: link availability: %.2f%% of ops served during outages (%d ok, %d refused typed: %d down, %d breaker fast-fails)\n",
		100*metrics.Availability(res.OpsOK, res.OpsRefused), res.OpsOK, res.OpsRefused, res.Refusals, res.FastFails)
	fmt.Fprintf(stdout, "salus-check: link writebacks: %d queued = %d drained (%d backpressure drops, peak depth %d, mean depth %.2f, mean parked age %.1f ops)\n",
		res.Queued, res.Drained, res.Dropped, res.QueuePeak,
		metrics.Per(res.DepthSum, res.DepthSamples), metrics.Per(res.AgeSum, res.AgeCount))
	return 0
}

func runServe(o *options, stdout io.Writer) int {
	plan := check.DefaultServePlan()
	o.override(&plan.SeedRange, map[string]*int{"ops": &plan.OpsPerClient, "pages": &plan.TotalPages,
		"devpages": &plan.DevicePages, "clients": &plan.Clients, "queuecap": &plan.QueueCap})
	res := check.Run(plan)
	if failed(stdout, "serve ", &res.Verdict) {
		return 1
	}
	fmt.Fprintf(stdout, "salus-check: serve PASS: %d seeds, %d streams, %d requests; %d checkpoints (%d refused typed), %d crashes, %d outages, %d tainted bytes\n",
		res.SeedsRun, res.Streams, res.Ops,
		res.Checkpoints, res.CheckpointRefusals, res.Crashes, res.Outages, res.TaintedBytes)
	fmt.Fprint(stdout, res.Tables())
	return 0
}

func runTenant(o *options, stdout io.Writer) int {
	plan := check.DefaultTenantPlan()
	o.override(&plan.SeedRange, map[string]*int{"ops": &plan.OpsPerWorker, "pages": &plan.PagesPerTenant,
		"devpages": &plan.FramesPerTenant, "workers": &plan.WorkersPerTenant, "queuecap": &plan.QueueCap})
	res := check.Run(plan)
	if failed(stdout, "tenant ", &res.Verdict) {
		return 1
	}
	fmt.Fprintf(stdout, "salus-check: tenant PASS: %d seeds, %d workers, %d ops; %d hostile probes (%d denied typed, %d quota refusals), %d/%d replays refused, %d checkpoints (%d refused typed), %d crashes, %d outages, %d tainted bytes\n",
		res.SeedsRun, res.Workers, res.Ops,
		res.HostileProbes, res.TypedDenials, res.QuotaRefusals,
		res.ReplayRefusals, res.ReplayAttacks,
		res.Checkpoints, res.CheckpointRefusals, res.Crashes, res.Outages, res.TaintedBytes)
	fmt.Fprintf(stdout, "salus-check: tenant availability: victim %.4f, bystander %.4f (floor %.4f), attacker %.4f under chaos\n",
		res.Availability("victim"), res.Availability("bystander"), plan.VictimSLO, res.Availability("attacker"))
	fmt.Fprint(stdout, res.Table())
	return 0
}

func runMigrate(o *options, stdout io.Writer) int {
	plan := check.DefaultMigratePlan()
	o.override(&plan.SeedRange, map[string]*int{"pages": &plan.PagesPerTenant,
		"devpages": &plan.FramesPerTenant, "queuecap": &plan.QueueCap})
	res := check.Run(plan)
	if failed(stdout, "migrate ", &res.Verdict) {
		return 1
	}
	fmt.Fprintf(stdout, "salus-check: migrate PASS: %d seeds, %d migrations, %d serve requests; %d/%d attacks refused typed, %d crash cuts clean, %d resumes (%d retries), %d identities retired\n",
		res.SeedsRun, res.Migrations, res.ServeRequests,
		res.TypedRejections, res.Attacks, res.CrashCuts, res.Resumes, res.Retries, res.Destroyed)
	fmt.Fprint(stdout, res.Table())
	return 0
}
