package check

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/oracle"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/tenant"
)

// Tenant-chaos mode: the cross-tenant leak campaign that earns the
// multi-tenant pool its isolation contract. Per seed, three tenants
// share one pool — a victim and a bystander serving honest traffic, and
// an attacker that mixes honest ops with hostile probes while the full
// chaos surface (transient faults, link outages, crash/recover cycles)
// is aimed at the attacker alone:
//
//   - slice-straddling and out-of-slice probes of the siblings' live,
//     evicted, and parked pages — every one must fail ErrTenantDenied
//     with the caller's buffer untouched;
//   - replayed ciphertext: a victim home-tier sector spliced verbatim
//     into the attacker's slice must be refused by the attacker's own
//     key domain (ErrIntegrity), never decrypted into victim plaintext;
//   - quota-pressure storms that must drown in typed ErrQuota without
//     starving the siblings.
//
// The contract asserted, per seed and campaign-wide:
//
//   - zero cross-tenant byte leaks: no probe ever returns sibling
//     bytes, and no sibling byte moves because of one;
//   - every hostile probe and every chaos casualty is refused typed —
//     an untyped error anywhere is a violation;
//   - per-tenant differential oracles hold after quiesce, where a byte
//     one of the attacker's failed writes touched may read back only as
//     its old value or a failed write's;
//   - blast radius: after the attacker is deliberately wrecked (poison
//     storm, in-slice ciphertext splatter, crash/recover), the victim
//     and bystander StateDigests are bit-identical to their pre-wreck
//     values and their availability never dropped below the SLO floor.

// TenantPlan sizes a hostile-tenant campaign.
type TenantPlan struct {
	SeedRange

	WorkersPerTenant int // concurrent worker streams per tenant
	OpsPerWorker     int // op slots each worker drives

	PagesPerTenant  int // home pages per tenant slice
	FramesPerTenant int // device frames per tenant slice
	Shards          int // lock shards per tenant engine
	Geometry        config.Geometry

	// QueueCap bounds each tenant's parked-writeback queue.
	QueueCap int

	// TransientRate/FaultBurst drive the attacker-only fault injector.
	TransientRate float64
	FaultBurst    int

	// EventEvery is the pace-tick period between chaos events;
	// OutageMin/OutageMax bound an attacker link outage in ticks.
	EventEvery           int
	OutageMin, OutageMax int

	// AttackerOpRate/AttackerOpBurst are the attacker's admission quota
	// (the victim and bystander run unmetered).
	AttackerOpRate  float64
	AttackerOpBurst float64

	// HostileEvery makes every n-th attacker op slot a hostile probe.
	HostileEvery int

	// VictimSLO is the availability floor asserted for the victim and
	// the bystander on the campaign aggregate.
	VictimSLO float64
}

// Tenant role names used by the campaign.
const (
	roleVictim    = "victim"
	roleBystander = "bystander"
	roleAttacker  = "attacker"
)

// tenantRoles orders the roles in TenantResult's per-role fields.
var tenantRoles = []string{roleVictim, roleBystander, roleAttacker}

// DefaultTenantPlan returns the smoke-budget hostile-tenant campaign
// used by `make tenant-smoke`: 8 sessions × 3 tenants × 3 workers × 70
// op slots over 8-page slices with 2 device frames each. The victim
// floor is strict on purpose: nothing the attacker does — probes,
// storms, outages, crashes — is allowed to cost the healthy tenants
// more than 1% availability.
func DefaultTenantPlan() TenantPlan {
	return TenantPlan{
		SeedRange: SeedRange{Seeds: 8, FirstSeed: 1},

		WorkersPerTenant: 3,
		OpsPerWorker:     70,

		PagesPerTenant:  8,
		FramesPerTenant: 2,
		Shards:          2,
		Geometry:        config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096},

		QueueCap: 4,

		TransientRate: 0.02,
		FaultBurst:    2,

		EventEvery: 40,
		OutageMin:  8,
		OutageMax:  20,

		AttackerOpRate:  0.5,
		AttackerOpBurst: 8,

		HostileEvery: 5,

		VictimSLO: 0.99,
	}
}

// TenantResult summarises a hostile-tenant campaign, or one session of
// it.
type TenantResult struct {
	Verdict
	Workers int // worker streams completed
	Ops     int // op attempts submitted (honest + hostile + storm sub-ops)

	HostileProbes  int // hostile probe attempts driven
	TypedDenials   int // probes refused ErrTenantDenied
	QuotaRefusals  int // ops refused ErrQuota
	ReplayAttacks  int // sibling-ciphertext splices driven
	ReplayRefusals int // splices refused by the key domain, typed

	Checkpoints        int // attacker checkpoints committed
	CheckpointRefusals int // checkpoints refused typed (link down)
	Crashes            int // attacker crash/recover cycles survived
	Outages            int // attacker link outages injected
	TaintedBytes       int // attacker bytes still write-ambiguous after quiesce

	// Aggregate holds the per-role tenant counters, in tenantRoles order.
	Aggregate []stats.TenantOps

	// OK and Attempts count worker op outcomes per role, in tenantRoles
	// order; see Availability.
	OK, Attempts [3]int
}

// Availability returns a role's ok/attempt ratio over the campaign. Only
// the victim's and bystander's are held to the SLO floor; the
// attacker's is reported so a plan that accidentally no-ops the chaos is
// visible.
func (r *TenantResult) Availability(role string) float64 {
	i := slices.Index(tenantRoles, role)
	if r.Attempts[i] == 0 {
		return 1
	}
	return float64(r.OK[i]) / float64(r.Attempts[i])
}

// Table renders the aggregate per-tenant rollup.
func (r *TenantResult) Table() string {
	o := stats.Ops{Tenants: r.Aggregate}
	return o.TenantTable().String()
}

func (r *TenantResult) progress() string {
	return fmt.Sprintf("%d ops, %d hostile (%d denied, %d quota), %d/%d replays refused, %d ckpt (%d refused), %d crashes, %d outages, victim avail %.3f",
		r.Ops, r.HostileProbes, r.TypedDenials, r.QuotaRefusals, r.ReplayRefusals, r.ReplayAttacks,
		r.Checkpoints, r.CheckpointRefusals, r.Crashes, r.Outages, r.Availability(roleVictim))
}

func (r *TenantResult) add(o *TenantResult) {
	r.Workers += o.Workers
	r.Ops += o.Ops
	r.HostileProbes += o.HostileProbes
	r.TypedDenials += o.TypedDenials
	r.QuotaRefusals += o.QuotaRefusals
	r.ReplayAttacks += o.ReplayAttacks
	r.ReplayRefusals += o.ReplayRefusals
	r.Checkpoints += o.Checkpoints
	r.CheckpointRefusals += o.CheckpointRefusals
	r.Crashes += o.Crashes
	r.Outages += o.Outages
	r.TaintedBytes += o.TaintedBytes
	for i := range o.Aggregate {
		if i == len(r.Aggregate) {
			r.Aggregate = append(r.Aggregate, stats.TenantOps{Name: o.Aggregate[i].Name})
		}
		r.Aggregate[i].Add(&o.Aggregate[i])
	}
	for i := range r.OK {
		r.OK[i] += o.OK[i]
		r.Attempts[i] += o.Attempts[i]
	}
}

func (p TenantPlan) seedRange() SeedRange { return p.SeedRange }

// finish asserts the healthy tenants' availability floor on the campaign
// aggregate.
func (p TenantPlan) finish(res *TenantResult) {
	for _, role := range []string{roleVictim, roleBystander} {
		if got := res.Availability(role); p.VictimSLO > 0 && got < p.VictimSLO {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"SLO miss: %s availability %.4f below floor %.4f", role, got, p.VictimSLO))
		}
	}
}

// runSeed runs one hostile-tenant session.
func (plan TenantPlan) runSeed(seed int64) TenantResult {
	res := TenantResult{Workers: len(tenantRoles) * plan.WorkersPerTenant}
	fail := func(format string, a ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
	}
	ps := plan.Geometry.PageSize
	if plan.WorkersPerTenant <= 0 || plan.OpsPerWorker <= 0 || plan.PagesPerTenant < 2 ||
		(plan.PagesPerTenant-1)*ps/plan.WorkersPerTenant < 256 {
		fail("plan sizing: %d workers × %d ops over %d pages", plan.WorkersPerTenant, plan.OpsPerWorker, plan.PagesPerTenant)
		return res
	}

	// --- Pool: three sibling domains; only the attacker is metered. ---
	pool, err := tenant.NewPool(tenant.Config{Geometry: plan.Geometry, QueueCap: plan.QueueCap, Slices: []tenant.Slice{
		{ID: roleVictim, BasePage: tenant.AutoBase, Pages: plan.PagesPerTenant, Frames: plan.FramesPerTenant, Shards: plan.Shards},
		{ID: roleBystander, BasePage: tenant.AutoBase, Pages: plan.PagesPerTenant, Frames: plan.FramesPerTenant, Shards: plan.Shards},
		{ID: roleAttacker, BasePage: tenant.AutoBase, Pages: plan.PagesPerTenant, Frames: plan.FramesPerTenant, Shards: plan.Shards,
			OpRate: plan.AttackerOpRate, OpBurst: plan.AttackerOpBurst},
	}})
	if err != nil {
		fail("session setup: %v", err)
		return res
	}
	victim, _ := pool.Tenant(roleVictim)
	bystander, _ := pool.Tenant(roleBystander)
	attacker, _ := pool.Tenant(roleAttacker)

	// --- Replayed-ciphertext attack, in the reserved last page of each
	// slice (worker regions exclude it, so no oracle ever covers the
	// battleground). The victim parks a secret sector in the home tier;
	// the raw bytes are spliced verbatim into the attacker's slice; the
	// attacker's key domain must refuse them typed and leak nothing. ---
	secret := bytes.Repeat([]byte{0x5e}, plan.Geometry.SectorSize)
	for i := range secret {
		secret[i] ^= byte(seed) + byte(i)
	}
	victimScratch := victim.Base() + securemem.HomeAddr(victim.Size()) - securemem.HomeAddr(ps)
	attackScratch := attacker.Base() + securemem.HomeAddr(attacker.Size()) - securemem.HomeAddr(ps)
	replay := func() {
		res.ReplayAttacks++
		if err := victim.Write(victimScratch, secret); err != nil {
			fail("replay setup: victim write: %v", err)
			return
		}
		if err := victim.Flush(); err != nil {
			fail("replay setup: victim flush: %v", err)
			return
		}
		if _, err := attacker.DrainWritebacks(); err != nil && !linkErr(err) && !faultErr(err) {
			fail("replay setup: attacker drain: %v", err)
			return
		}
		if err := attacker.Flush(); err != nil && !linkErr(err) && !faultErr(err) {
			fail("replay setup: attacker flush: %v", err)
			return
		}
		if err := pool.SpliceHome(attackScratch, victimScratch, plan.Geometry.SectorSize); err != nil {
			fail("replay splice: %v", err)
			return
		}
		buf := make([]byte, plan.Geometry.SectorSize)
		err := attacker.Read(attackScratch, buf)
		switch {
		case err == nil:
			fail("cross-tenant replay VERIFIED under the attacker key domain")
		case errors.Is(err, securemem.ErrIntegrity), errors.Is(err, securemem.ErrFreshness),
			errors.Is(err, tenant.ErrQuota), linkErr(err), faultErr(err):
			res.ReplayRefusals++
		default:
			fail("replay read failed untyped: %v", err)
		}
		if bytes.Contains(buf, secret[:8]) {
			fail("cross-tenant replay leaked victim bytes into the attacker buffer")
		}
		// Victim's own copy must be untouched by the splice.
		got := make([]byte, len(secret))
		if err := victim.Read(victimScratch, got); err != nil {
			fail("victim re-read after replay: %v", err)
		} else if !bytes.Equal(got, secret) {
			fail("victim bytes moved by a sibling replay")
		}
	}
	replay() // once pre-chaos; repeated by the chaos driver mid-traffic

	// --- Workers: disjoint sub-regions of each slice (minus the
	// reserved scratch page), per-worker differential oracles. ---
	usable := int(victim.Size()) - ps
	region := usable / plan.WorkersPerTenant
	var workers []*tenantWorker
	mkWorkers := func(ten *tenant.Tenant, role string, hostile bool, sibling *tenant.Tenant) {
		for w := 0; w < plan.WorkersPerTenant; w++ {
			workers = append(workers, &tenantWorker{
				ten:     ten,
				role:    role,
				hostile: hostile,
				plan:    plan,
				base:    uint64(ten.Base()) + uint64(w*region),
				size:    uint64(region),
				sibling: sibling,
				slots:   plan.OpsPerWorker,
				rng:     rand.New(rand.NewSource(seed<<12 ^ int64(len(workers)+1)*0x9e37)),
			})
		}
	}
	mkWorkers(victim, roleVictim, false, attacker)
	mkWorkers(bystander, roleBystander, false, victim)
	mkWorkers(attacker, roleAttacker, true, victim)
	for _, w := range workers {
		if err := w.init(); err != nil {
			fail("worker init (%s): %v", w.role, err)
			return res
		}
	}

	// --- Chaos surface, attacker only. The victim and bystander run
	// with no injector and no link model: any failure they ever see is
	// by definition the attacker's blast radius escaping. ---
	manual := link.NewManual()
	attacker.AttachLink(link.New(manual, link.DefaultConfig()), nil)
	armFaults := func(salt int64) {
		if plan.TransientRate > 0 {
			inj := fault.NewRatePlan(seed^salt, fault.Rates{Transient: plan.TransientRate}, plan.FaultBurst)
			attacker.AttachFaults(inj, serveEnginePolicy(), nil)
		}
	}
	disarmFaults := func() { attacker.AttachFaults(nil, serveEnginePolicy(), nil) }
	armFaults(0)

	// --- Checkpoint/crash machinery for the attacker domain. attackMu
	// serialises the maintenance windows against the attacker workers
	// (each op+oracle update runs under the read side), so a checkpoint
	// snapshots engine and oracles at one consistent cut, and a crash
	// swaps the recovered engine and rewinds the oracles atomically. ---
	var attackMu sync.RWMutex
	store := crash.NewMemStore()
	journal := crash.NewJournal(store)
	var root securemem.TrustedRoot
	haveRoot := false
	var snaps []*oracle.Bytes // per attacker worker

	attackerWorkers := workers[2*plan.WorkersPerTenant:]
	checkpoint := func() {
		attackMu.Lock()
		defer attackMu.Unlock()
		disarmFaults()
		defer armFaults(int64(res.Checkpoints+1) << 8)
		r, err := attacker.Checkpoint(journal)
		switch {
		case err == nil:
			root, haveRoot = r, true
			snaps = snaps[:0]
			for _, w := range attackerWorkers {
				snaps = append(snaps, w.want.Snapshot())
			}
			res.Checkpoints++
		case linkErr(err):
			res.CheckpointRefusals++
		default:
			fail("attacker checkpoint failed untyped: %v", err)
		}
	}
	crashRecover := func() {
		if !haveRoot {
			return
		}
		attackMu.Lock()
		defer attackMu.Unlock()
		if err := pool.RecoverTenant(roleAttacker, store.Bytes(), root); err != nil {
			fail("attacker recovery failed: %v", err)
			return
		}
		// The reborn engine renegotiates its chaos surface and the
		// worker oracles rewind to the checkpoint cut.
		attacker.AttachLink(link.New(manual, link.DefaultConfig()), nil)
		armFaults(int64(res.Crashes+1) << 24)
		for i, w := range attackerWorkers {
			w.want.Restore(snaps[i])
		}
		res.Crashes++
	}

	// --- Traffic plus the chaos driver, paced by worker op completions
	// exactly like the serve campaign: blocking ticks, drained before
	// done, so the event schedule is a pure function of the seed. ---
	pace := make(chan struct{}, 1024)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *tenantWorker) {
			defer wg.Done()
			w.run(pace, &attackMu)
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	rng := rand.New(rand.NewSource(seed ^ 0x7e4a))
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
		switch ev := rng.Intn(12); {
		case ev < 4: // attacker link outage window
			if !linkDown {
				manual.Set(link.StateDown)
				linkDown = true
				upAt = ticks + plan.OutageMin + rng.Intn(plan.OutageMax-plan.OutageMin+1)
				res.Outages++
			}
		case ev < 7: // checkpoint in a link-up maintenance window
			if !linkDown {
				checkpoint()
			}
		case ev < 9: // crash/recover the attacker domain
			if !linkDown {
				crashRecover()
			}
		default: // mid-traffic sibling-ciphertext replay
			if !linkDown {
				attackMu.Lock()
				disarmFaults()
				replay()
				armFaults(int64(ticks) << 4)
				attackMu.Unlock()
			}
		}
	}

	// --- Quiesce: chaos disarmed, link forced up, attacker drained.
	// From here on everything must succeed. ---
	disarmFaults()
	attacker.ForceLinkUp()
	if _, err := attacker.DrainWritebacks(); err != nil {
		fail("post-quiesce attacker drain failed: %v", err)
	}

	// --- Verification: per-worker oracles, outcome conservation,
	// availability accounting. ---
	for _, w := range workers {
		// Count the ambiguity that survived the session before the final
		// sweep resolves it.
		res.TaintedBytes += w.want.Ambiguities()
		res.Violations = append(res.Violations, w.violations...)
		w.verifyFinal()
		res.Violations = append(res.Violations, w.finalViolations...)
		if total := w.ok + w.denied + w.quotaHits + w.faulted + w.integrity + w.untyped; total != w.attempts {
			fail("%s worker outcome conservation: %d outcomes for %d attempts", w.role, total, w.attempts)
		}
		res.Ops += w.attempts
		res.HostileProbes += w.hostileOps
		res.TypedDenials += w.denied
		res.QuotaRefusals += w.quotaHits
		i := slices.Index(tenantRoles, w.role)
		res.OK[i] += w.ok
		res.Attempts[i] += w.attempts
	}

	// The healthy tenants must have seen zero denials, zero integrity
	// refusals, zero faults: they never probe and no chaos is theirs.
	for _, ten := range []*tenant.Tenant{victim, bystander} {
		ops := ten.Stats()
		if ops.Denied != 0 || ops.Integrity != 0 || ops.Faults != 0 || ops.Quota != 0 {
			fail("%s absorbed sibling blast: denied=%d integrity=%d faults=%d quota=%d",
				ops.Name, ops.Denied, ops.Integrity, ops.Faults, ops.Quota)
		}
	}

	// --- Blast radius: fingerprint the healthy tenants, then wreck the
	// attacker on purpose — poison storm, in-slice ciphertext splatter,
	// a final crash/recover — and prove the fingerprints never move. ---
	digestV := victim.StateDigest()
	digestB := bystander.StateDigest()

	poison := fault.NewRatePlan(seed^0x90150, fault.Rates{Poison: 0.5}, 3)
	attacker.AttachFaults(poison, serveEnginePolicy(), nil)
	junk := make([]byte, 64)
	for i := 0; i < 12; i++ {
		addr := attacker.Base() + securemem.HomeAddr(i*ps/2)
		if err := attacker.Read(addr, junk); err != nil && !faultErr(err) && !errors.Is(err, tenant.ErrQuota) && !errors.Is(err, securemem.ErrIntegrity) {
			fail("attacker wreck read failed untyped: %v", err)
		}
		if err := attacker.Write(addr, junk); err != nil && !faultErr(err) && !errors.Is(err, tenant.ErrQuota) && !errors.Is(err, securemem.ErrIntegrity) {
			fail("attacker wreck write failed untyped: %v", err)
		}
	}
	disarmFaults()
	// Ciphertext splatter within the attacker slice only.
	for i := 0; i < 4; i++ {
		dst := attacker.Base() + securemem.HomeAddr(i*plan.Geometry.ChunkSize)
		if err := pool.SpliceHome(dst, attackScratch, plan.Geometry.SectorSize); err != nil {
			fail("wreck splice: %v", err)
		}
	}
	if haveRoot {
		if err := pool.RecoverTenant(roleAttacker, store.Bytes(), root); err != nil {
			fail("post-wreck attacker recovery failed: %v", err)
		} else {
			res.Crashes++
		}
	}

	if victim.StateDigest() != digestV {
		fail("victim state digest moved while the attacker was wrecked")
	}
	if bystander.StateDigest() != digestB {
		fail("bystander state digest moved while the attacker was wrecked")
	}
	// And the healthy tenants still serve, byte-correct.
	for _, w := range workers[:2*plan.WorkersPerTenant] {
		w.finalViolations = w.finalViolations[:0]
		w.verifyFinal()
		res.Violations = append(res.Violations, w.finalViolations...)
	}

	for _, ten := range []*tenant.Tenant{victim, bystander, attacker} {
		res.Aggregate = append(res.Aggregate, ten.Stats())
	}
	return res
}

// tenantWorker drives one stream of ops against one tenant, keeping a
// differential oracle over its own disjoint sub-region. Attacker
// workers interleave hostile probes; probe outcomes never touch the
// oracle (they are refused before bytes move, and the campaign fails if
// not).
type tenantWorker struct {
	ten     tenantPort
	role    string
	hostile bool
	plan    TenantPlan
	base    uint64
	size    uint64
	sibling tenantPort
	slots   int
	rng     *rand.Rand

	want *oracle.Bytes

	attempts, ok, denied, quotaHits, faulted, integrity, untyped int
	hostileOps                                                   int
	violations                                                   []string
	finalViolations                                              []string
}

// tenantPort is the part of a *tenant.Tenant a worker drives; tests
// plant bugs behind it.
type tenantPort interface {
	Base() securemem.HomeAddr
	Size() uint64
	Read(addr securemem.HomeAddr, buf []byte) error
	Write(addr securemem.HomeAddr, data []byte) error
}

// init seeds the oracle from a pre-chaos read of the whole region.
func (w *tenantWorker) init() error {
	buf := make([]byte, w.size)
	err := w.ten.Read(securemem.HomeAddr(w.base), buf)
	w.want = oracle.Of(buf)
	return err
}

// run drives the worker's op slots. Attacker workers take the read side
// of mu around every op so maintenance windows see consistent cuts.
func (w *tenantWorker) run(pace chan<- struct{}, mu *sync.RWMutex) {
	for i := 0; i < w.slots; i++ {
		if w.hostile {
			mu.RLock()
		}
		if w.hostile && w.plan.HostileEvery > 0 && i%w.plan.HostileEvery == w.plan.HostileEvery-1 {
			w.hostileStep()
		} else {
			w.honestStep()
		}
		if w.hostile {
			mu.RUnlock()
		}
		pace <- struct{}{}
	}
}

func (w *tenantWorker) fail(format string, a ...any) {
	w.violations = append(w.violations, fmt.Sprintf("%s worker: %s", w.role, fmt.Sprintf(format, a...)))
}

// classify folds one op outcome into the counters; only nil, typed
// denials, typed quota, typed integrity, and typed fault/link sentinels
// are legal.
func (w *tenantWorker) classify(err error, op string) {
	w.attempts++
	switch {
	case err == nil:
		w.ok++
	case errors.Is(err, tenant.ErrTenantDenied):
		w.denied++
	case errors.Is(err, tenant.ErrQuota):
		w.quotaHits++
	case errors.Is(err, securemem.ErrIntegrity), errors.Is(err, securemem.ErrFreshness):
		w.integrity++
	case linkErr(err), faultErr(err):
		w.faulted++
	default:
		w.untyped++
		w.fail("%s failed untyped: %v", op, err)
	}
}

// honestStep performs one in-region read or write and maintains the
// oracle. A write that failed past admission leaves its bytes ambiguous
// between the old and new values; a later verified read must see one of
// them.
func (w *tenantWorker) honestStep() {
	n := 1 + w.rng.Intn(96)
	if n > int(w.size) {
		n = int(w.size)
	}
	off := w.rng.Intn(int(w.size) - n + 1)
	addr := securemem.HomeAddr(w.base + uint64(off))
	if w.rng.Intn(2) == 0 {
		buf := make([]byte, n)
		err := w.ten.Read(addr, buf)
		w.classify(err, "read")
		if err != nil {
			return
		}
		if d := w.want.Observe(off, buf); d != nil {
			w.fail("silent divergence: %v", d)
		}
	} else {
		data := make([]byte, n)
		w.rng.Read(data)
		err := w.ten.Write(addr, data)
		w.classify(err, "write")
		switch {
		case err == nil:
			w.want.Write(off, data)
		case errors.Is(err, tenant.ErrQuota), errors.Is(err, tenant.ErrTenantDenied):
			// Refused before the engine: bytes provably unchanged.
		default:
			w.want.Ambiguous(off, data)
		}
	}
}

// hostileStep performs one hostile probe: an out-of-slice or straddling
// access that must come back ErrTenantDenied with the buffer untouched,
// or a quota-pressure burst that must drown in typed ErrQuota.
func (w *tenantWorker) hostileStep() {
	w.hostileOps++
	switch w.rng.Intn(4) {
	case 0: // probe a sibling's slice (live, evicted, or parked pages)
		addr := w.sibling.Base() + securemem.HomeAddr(w.rng.Intn(int(w.sibling.Size())-64))
		w.probeDenied(addr, "sibling probe")
	case 1: // straddle out of the top of the attacker's own slice
		addr := w.ten.Base() + securemem.HomeAddr(w.ten.Size()) - 16
		w.probeDenied(addr, "straddling probe")
	case 2: // far out of the pool entirely
		addr := securemem.HomeAddr(uint64(1)<<40 + uint64(w.rng.Intn(1<<20)))
		w.probeDenied(addr, "out-of-pool probe")
	default: // quota-pressure storm
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			w.classify(w.ten.Read(securemem.HomeAddr(w.base), buf), "storm read")
		}
	}
}

// probeDenied drives one read and one write probe at a hostile address
// and asserts the typed denial plus byte-silence.
func (w *tenantWorker) probeDenied(addr securemem.HomeAddr, kind string) {
	sentinel := byte(0xEE)
	buf := bytes.Repeat([]byte{sentinel}, 64)
	err := w.ten.Read(addr, buf)
	w.classify(err, kind+" read")
	if err == nil {
		w.fail("%s read at %d returned bytes instead of a denial", kind, addr)
	} else if !errors.Is(err, tenant.ErrTenantDenied) {
		w.fail("%s read at %d: got %v, want ErrTenantDenied", kind, addr, err)
	}
	for _, b := range buf {
		if b != sentinel {
			w.fail("%s read mutated the caller buffer through a denial", kind)
			break
		}
	}
	werr := w.ten.Write(addr, buf)
	w.classify(werr, kind+" write")
	if !errors.Is(werr, tenant.ErrTenantDenied) {
		w.fail("%s write at %d: got %v, want ErrTenantDenied", kind, addr, werr)
	}
}

// verifyFinal re-reads the whole region against the oracle.
func (w *tenantWorker) verifyFinal() {
	ffail := func(format string, a ...any) {
		w.finalViolations = append(w.finalViolations, fmt.Sprintf("%s worker final: %s", w.role, fmt.Sprintf(format, a...)))
	}
	buf := make([]byte, w.size)
	// A drained admission bucket refills per attempt; the typed ErrQuota
	// here is the quota working as specified, so ride through it.
	var err error
	for tries := 0; tries < 8; tries++ {
		if err = w.ten.Read(securemem.HomeAddr(w.base), buf); !errors.Is(err, tenant.ErrQuota) {
			break
		}
	}
	if err != nil {
		ffail("final read failed: %v", err)
		return
	}
	if d := w.want.Observe(0, buf); d != nil {
		ffail("divergence: %v", d)
	}
}
