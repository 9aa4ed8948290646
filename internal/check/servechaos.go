package check

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/oracle"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
	"github.com/salus-sim/salus/internal/stats"
)

// Serve-chaos mode: the campaign that earns the service layer its SLOs.
// Per seed, a fleet of concurrent client streams drives a shared
// serve.Server while a chaos driver — paced by the traffic itself, never
// by the wall clock — injects all three failure families at once, for
// the first time mid-traffic:
//
//   - transient faults (a seeded rate plan, engine retries disabled so
//     the service retry budget is the only recovery loop);
//   - CXL link outages (a manual link the driver flaps down and up);
//   - crash/recover cycles (quiesce, checkpoint to a journal, later
//     rebuild the engine from the journal with securemem.Recover and
//     swap it under the live server while the clients' oracles rewind
//     to the matching snapshot).
//
// The contract asserted, per seed and campaign-wide:
//
//   - every rejection is typed (shed, overload, deadline, retry-budget,
//     ambiguous, or a typed engine sentinel) — an untyped error is a
//     violation;
//   - zero silent divergences: every verified read matches the client's
//     oracle, where a byte an ambiguous write touched may read back only
//     as its old value or an unresolved write's, and after quiesce the
//     engine state passes the same check;
//   - outcome conservation: every submitted request has exactly one
//     outcome, on both the client and the server side of the counter;
//   - per-class availability meets the configured SLO floors —
//     interactive, which is never shed and keeps serving device-resident
//     reads through outages, is the class held to a floor by default.

// ServePlan sizes a combined-chaos service campaign.
type ServePlan struct {
	SeedRange

	Clients      int // concurrent client streams per session
	OpsPerClient int // requests each stream submits

	Space
	Shards int // engine lock shards

	// QueueCap bounds the dirty-writeback queue (ErrQueueFull pressure).
	QueueCap int

	// TransientRate is the per-consultation transient fault probability;
	// FaultBurst bounds how many consecutive attempts one fault eats.
	TransientRate float64
	FaultBurst    int

	// EventEvery is the pace-tick period between chaos events; <= 0
	// disables chaos entirely (a healthy baseline run).
	EventEvery int
	// OutageMin/OutageMax bound a forced link outage in pace ticks.
	OutageMin, OutageMax int

	// SLO holds per-class availability floors in [0, 1]; a zero entry is
	// reported but not asserted. Floors are asserted on the campaign
	// aggregate, after all seeds ran.
	SLO [stats.NumServeClasses]float64

	// TenantNames, when non-empty, tags the client streams with tenant
	// identities round-robin, so every request feeds the server's
	// per-tenant rollup (Report.Tenants) alongside its class counters.
	TenantNames []string
	// TenantSLO is the per-tenant availability floor in [0, 1],
	// asserted on the campaign-aggregate rollup for every named tenant:
	// (reads+writes-faults)/attempts. Zero reports without asserting.
	TenantSLO float64

	// Classes overrides the server's per-class tuning; the zero value
	// selects serve.DefaultClasses via serve.New.
	Classes [serve.NumClasses]serve.ClassConfig
}

// DefaultServePlan returns the smoke-budget combined-chaos campaign used
// by `make serve-smoke`: 10 sessions × 21 streams (7 per class) × 60
// requests over a 24-page home space with 6 device frames. The
// interactive floor is deliberately conservative — the point of the
// assertion is "the healthy class keeps serving through combined
// chaos", not a tuned-to-yesterday ratio.
func DefaultServePlan() ServePlan {
	var slo [stats.NumServeClasses]float64
	slo[serve.Interactive] = 0.60
	// Interactive gets a generous retry budget but a tight deadline, so
	// under an outage the concurrent fleet's clock advancement expires
	// requests mid-retry-loop: the campaign exercises typed deadline
	// rejections, not just budget exhaustion.
	var classes [serve.NumClasses]serve.ClassConfig
	classes[serve.Interactive] = serve.ClassConfig{Queue: 64, Retries: 8, Deadline: 24}
	return ServePlan{
		SeedRange: SeedRange{Seeds: 10, FirstSeed: 1},

		Clients:      21,
		OpsPerClient: 60,

		Space: Space{
			TotalPages:  24,
			DevicePages: 6,
			Geometry:    config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096},
		},
		Shards: 4,

		QueueCap: 4,

		TransientRate: 0.01,
		FaultBurst:    2,

		EventEvery: 40,
		OutageMin:  8,
		OutageMax:  24,

		SLO:     slo,
		Classes: classes,

		// Two tenants against three classes keeps the assignments
		// decorrelated (each tenant holds streams of every class). The
		// floor is deliberately far below the interactive one: a
		// tenant's rollup includes its batch and bulk streams, which
		// the degradation ladder sheds by design under outages, and how
		// much of those survive moves with real goroutine scheduling
		// (a race-detector run sheds measurably more). The assertion is
		// "no tenant is starved outright", not a tuned-to-yesterday
		// yield.
		TenantNames: []string{"tenant-a", "tenant-b"},
		TenantSLO:   0.20,
	}
}

// serveEnginePolicy is the engine retry policy under service mode: one
// attempt per service attempt. The zero RetryPolicy selects the engine
// default (8 retries), so MaxRetries: 0 must ride with non-zero backoff
// fields to mean what it says.
func serveEnginePolicy() securemem.RetryPolicy {
	return securemem.RetryPolicy{MaxRetries: 0, BaseBackoff: 1, MaxBackoff: 1}
}

// ServeResult summarises a combined-chaos campaign, or one session of it.
type ServeResult struct {
	Verdict
	Streams int // client streams completed
	Ops     int // requests submitted

	// Aggregate folds every session's server report: per-class outcome
	// counters and served-latency histograms (p50/p99/p999 source).
	Aggregate serve.Report

	Checkpoints        int // successful journal checkpoints
	CheckpointRefusals int // checkpoints refused typed (link down)
	Crashes            int // crash/recover cycles survived
	Outages            int // forced link outages injected
	TaintedBytes       int // bytes still write-ambiguous after quiesce
}

func (r *ServeResult) progress() string {
	return fmt.Sprintf("%d streams, interactive avail %.3f, %d ckpt (%d refused), %d crashes, %d outages, peak tier %d, %d tainted",
		r.Streams, r.Aggregate.Availability(serve.Interactive), r.Checkpoints, r.CheckpointRefusals,
		r.Crashes, r.Outages, r.Aggregate.PeakTier, r.TaintedBytes)
}

func (r *ServeResult) add(o *ServeResult) {
	r.Streams += o.Streams
	r.Ops += o.Ops
	r.Aggregate.Merge(&o.Aggregate)
	r.Checkpoints += o.Checkpoints
	r.CheckpointRefusals += o.CheckpointRefusals
	r.Crashes += o.Crashes
	r.Outages += o.Outages
	r.TaintedBytes += o.TaintedBytes
}

// Tables renders the aggregate per-class outcome and latency tables.
func (r *ServeResult) Tables() string {
	var b strings.Builder
	b.WriteString(r.Aggregate.OutcomeTable().String())
	b.WriteString(r.Aggregate.LatencyTable().String())
	if len(r.Aggregate.Tenants) > 0 {
		b.WriteString(r.Aggregate.TenantTable().String())
	}
	return b.String()
}

func (p ServePlan) seedRange() SeedRange { return p.SeedRange }

// finish asserts the availability SLO floors on the campaign aggregate.
func (p ServePlan) finish(res *ServeResult) {
	for c := serve.Class(0); c < serve.NumClasses; c++ {
		if floor := p.SLO[c]; floor > 0 {
			if got := res.Aggregate.Availability(c); got < floor {
				res.Violations = append(res.Violations,
					fmt.Sprintf("SLO miss: class %v availability %.4f below floor %.4f", c, got, floor))
			}
		}
	}
	if p.TenantSLO > 0 && len(p.TenantNames) > 0 {
		if len(res.Aggregate.Tenants) == 0 {
			res.Violations = append(res.Violations,
				"per-tenant SLO configured but no tenant rollup was recorded")
		}
		for i := range res.Aggregate.Tenants {
			t := &res.Aggregate.Tenants[i]
			att := t.Attempts()
			if att == 0 {
				continue
			}
			got := float64(t.Reads+t.Writes-t.Faults) / float64(att)
			if got < p.TenantSLO {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"SLO miss: tenant %s availability %.4f below floor %.4f", t.Name, got, p.TenantSLO))
			}
		}
	}
}

// runSeed runs one combined-chaos traffic session: build the engine, arm
// the chaos surface, start the client fleet, drive chaos paced by the
// traffic, then quiesce and verify.
func (plan ServePlan) runSeed(seed int64) ServeResult {
	res := ServeResult{Streams: plan.Clients, Ops: plan.Clients * plan.OpsPerClient}
	fail := func(format string, a ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
	}

	size := int(plan.size())
	if plan.Clients <= 0 || plan.OpsPerClient <= 0 || size < plan.Clients {
		fail("plan sizing: %d clients × %d ops over %d bytes", plan.Clients, plan.OpsPerClient, size)
		return res
	}

	// --- Engine with the full chaos surface attached. ---
	memCfg := plan.memConfig()
	memCfg.Shards = plan.Shards
	eng, err := securemem.NewConcurrent(memCfg)
	if err != nil {
		fail("session setup: %v", err)
		return res
	}
	manual := link.NewManual()
	eng.AttachLink(link.New(manual, link.DefaultConfig()), nil, plan.QueueCap)
	if plan.TransientRate > 0 {
		inj := fault.NewRatePlan(seed, fault.Rates{Transient: plan.TransientRate}, plan.FaultBurst)
		eng.AttachFaults(inj, serveEnginePolicy(), nil)
	}

	srv, err := serve.New(serve.Config{Engine: eng, Classes: plan.Classes})
	if err != nil {
		fail("session setup: %v", err)
		return res
	}

	// --- Client fleet over disjoint regions, classes round-robin. ---
	pace := make(chan struct{}, 1024)
	region := size / plan.Clients
	clients := make([]*serve.Client, plan.Clients)
	for i := range clients {
		tenantID := ""
		if len(plan.TenantNames) > 0 {
			tenantID = plan.TenantNames[i%len(plan.TenantNames)]
		}
		c, err := serve.NewClient(serve.ClientConfig{
			ID:     i,
			Class:  serve.Class(i % int(serve.NumClasses)),
			Tenant: tenantID,
			Base:   securemem.HomeAddr(i * region),
			Len:    region,
			Ops:    plan.OpsPerClient,
			Seed:   seed<<16 + int64(i),
			Pace:   pace,
		})
		if err != nil {
			fail("session setup: %v", err)
			return res
		}
		clients[i] = c
	}

	// --- Checkpoint/crash machinery. A checkpoint captures the engine
	// root and every client oracle in one quiesced exclusion; a crash
	// rebuilds the engine from the journal and rewinds the oracles to
	// the matching snapshot in one quiesced swap. The driver only
	// checkpoints in its own link-up windows, so (with the fault
	// injector detached for the maintenance window) the only failure
	// mode left is the typed atomic link-precheck refusal. ---
	store := crash.NewMemStore()
	journal := crash.NewJournal(store)
	var root securemem.TrustedRoot
	haveRoot := false
	snaps := make([]*oracle.Bytes, len(clients))

	checkpoint := func() {
		err := srv.WithQuiesced(func(eng *securemem.Concurrent) error {
			eng.AttachFaults(nil, serveEnginePolicy(), nil)
			defer func() {
				if plan.TransientRate > 0 {
					inj := fault.NewRatePlan(seed^int64(res.Checkpoints+1)<<8,
						fault.Rates{Transient: plan.TransientRate}, plan.FaultBurst)
					eng.AttachFaults(inj, serveEnginePolicy(), nil)
				}
			}()
			r, err := eng.Checkpoint(journal)
			if err != nil {
				return err
			}
			root, haveRoot = r, true
			for i, c := range clients {
				snaps[i] = c.Oracle().Snapshot()
			}
			return nil
		})
		switch {
		case err == nil:
			res.Checkpoints++
		case linkErr(err):
			res.CheckpointRefusals++
		default:
			fail("checkpoint failed untyped: %v", err)
		}
	}

	crashRecover := func() {
		if !haveRoot {
			return
		}
		err := srv.WithQuiescedSwap(func(_ *securemem.Concurrent) (*securemem.Concurrent, error) {
			sys, err := securemem.Recover(memCfg, store.Bytes(), root)
			if err != nil {
				return nil, fmt.Errorf("recover from epoch %d: %w", root.Epoch, err)
			}
			reborn := securemem.ConcurrentFrom(sys, plan.Shards)
			// The reboot renegotiates the chaos surface: same manual link
			// plan (whatever state the driver left it in), a reseeded
			// fault plan.
			reborn.AttachLink(link.New(manual, link.DefaultConfig()), nil, plan.QueueCap)
			if plan.TransientRate > 0 {
				inj := fault.NewRatePlan(seed^int64(res.Crashes+1)<<24,
					fault.Rates{Transient: plan.TransientRate}, plan.FaultBurst)
				reborn.AttachFaults(inj, serveEnginePolicy(), nil)
			}
			for i, c := range clients {
				c.Oracle().Restore(snaps[i])
			}
			return reborn, nil
		})
		if err != nil {
			fail("crash recovery failed: %v", err)
			return
		}
		res.Crashes++
	}

	// --- Traffic plus the chaos driver. The driver is paced by client
	// completions (one lossy tick per finished request), never by the
	// wall clock, so the schedule is load-proportional and the session
	// terminates exactly when the fleet does. ---
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *serve.Client) {
			defer wg.Done()
			c.Run(srv)
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	// Pace sends are blocking and the loop drains pace before honoring
	// done, so every one of the Clients×Ops ticks is counted: the event
	// schedule — which ticks flap, checkpoint, or crash — is a pure
	// function of the seed, independent of goroutine interleaving.
	rng := rand.New(rand.NewSource(seed ^ 0x5a1e))
	ticks, upAt := 0, 0
	linkDown := false
	for running := true; running; {
		select {
		case <-pace:
			ticks++
		default:
			select {
			case <-pace:
				ticks++
			case <-done:
				running = false
			}
		}
		if linkDown && (ticks >= upAt || !running) {
			manual.Set(link.StateUp)
			linkDown = false
		}
		if !running || plan.EventEvery <= 0 || ticks%plan.EventEvery != 0 {
			continue
		}
		switch ev := rng.Intn(10); {
		case ev < 4: // link outage window
			if !linkDown {
				manual.Set(link.StateDown)
				linkDown = true
				upAt = ticks + plan.OutageMin + rng.Intn(plan.OutageMax-plan.OutageMin+1)
				res.Outages++
			}
		case ev < 8: // checkpoint in a link-up maintenance window
			if !linkDown {
				checkpoint()
			}
		default: // crash/recover (the reboot brings the link back up)
			if !linkDown {
				crashRecover()
			}
		}
	}

	// --- Quiesce: chaos disarmed, link forced up, writebacks drained.
	// From here on everything must succeed. ---
	final := srv.Engine()
	final.AttachFaults(nil, serveEnginePolicy(), nil)
	final.ForceLinkUp()
	if _, err := final.DrainWritebacks(); err != nil {
		fail("post-quiesce drain failed: %v", err)
	}

	// --- Verification: conservation, typed-only outcomes, zero silent
	// divergences modulo surviving write ambiguity. ---
	res.Aggregate = srv.Snapshot()
	var attempts uint64
	for c := serve.Class(0); c < serve.NumClasses; c++ {
		attempts += res.Aggregate.Ops[c].Attempts()
	}
	if want := uint64(plan.Clients * plan.OpsPerClient); attempts != want {
		fail("server outcome conservation: %d outcomes for %d submitted requests", attempts, want)
	}
	read := func(addr securemem.HomeAddr, buf []byte) error { return final.Read(addr, buf) }
	for _, c := range clients {
		// Count the ambiguity that survived the session before the final
		// sweep resolves it.
		res.TaintedBytes += c.Oracle().Ambiguities()
		res.Violations = append(res.Violations, c.Violations()...)
		res.Violations = append(res.Violations, c.VerifyFinal(read)...)
		o := c.Outcomes()
		if total := o.Served + o.Shed + o.Deadline + o.Overload + o.Refused + o.Ambiguous + o.Untyped; total != plan.OpsPerClient {
			fail("client outcome conservation: %d outcomes for %d submitted requests", total, plan.OpsPerClient)
		}
	}
	return res
}
