// Package serve is the in-process traffic service: it multiplexes many
// concurrent client streams onto one shared securemem.Concurrent engine
// with real overload protection. The request pipeline is
//
//	shed check -> token-bucket admission -> bounded queue slot ->
//	deadline/retry execution loop -> typed outcome
//
// and every stage fails fast with a typed error — ErrShed, ErrOverload,
// ErrDeadline, ErrRetryBudget, ErrAmbiguous — so no request is ever
// buffered unboundedly, silently dropped, or silently wrong. Time is the
// shared sim.Clock: it advances only when requests do work, so deadlines
// and bucket refills are deterministic functions of load, never of the
// wall clock.
//
// Overload behaviour is class-aware (stats.ServeClass): under link
// pressure the degradation tiers shed bulk traffic first, then batch,
// and never interactive — device-resident reads keep serving through a
// CXL outage because they never touch the link.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// Class identifies a client's traffic class; it is the stats enum so the
// service counters wire straight into stats.Ops.
type Class = stats.ServeClass

// Traffic classes, re-exported for callers of this package.
const (
	Interactive = stats.ServeInteractive
	Batch       = stats.ServeBatch
	Bulk        = stats.ServeBulk
	NumClasses  = stats.NumServeClasses
)

// Typed rejection taxonomy. Every error Do returns wraps exactly one of
// these (or passes a securemem sentinel through typed); errors.Is is the
// supported way to classify an outcome.
var (
	// ErrOverload reports a request refused by admission control: the
	// class token bucket was empty or its bounded queue was full.
	ErrOverload = errors.New("serve: overload (admission refused)")
	// ErrDeadline reports a request whose deadline passed before it
	// could complete.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrShed reports a request refused by a degradation tier before
	// touching the engine.
	ErrShed = errors.New("serve: shed by degradation tier")
	// ErrRetryBudget reports an idempotent request that kept failing
	// after its retry budget was spent.
	ErrRetryBudget = errors.New("serve: retry budget exhausted")
	// ErrAmbiguous reports a write that failed after reaching the
	// engine: the bytes may or may not have been applied, so the service
	// refuses to retry it (a retry could double-apply).
	ErrAmbiguous = errors.New("serve: write failed ambiguously (not retried)")
	// ErrClosed reports a request submitted after Close.
	ErrClosed = errors.New("serve: server closed")
)

// ClassConfig tunes one traffic class.
type ClassConfig struct {
	// Rate is the token-bucket refill rate in tokens per clock cycle;
	// zero or negative disables admission-rate limiting for the class.
	Rate float64
	// Burst is the bucket capacity (minimum 1 when Rate is set).
	Burst float64
	// Queue bounds the class's in-flight requests; at the bound further
	// requests fail fast with ErrOverload. Minimum 1.
	Queue int
	// Retries is the default service-level retry budget for idempotent
	// requests (a Request may override it). Writes never retry.
	Retries int
	// Deadline is the default relative deadline in clock cycles charged
	// to the service clock; zero means no deadline.
	Deadline sim.Cycle
}

// TenantConfig tunes one tenant's cross-class admission bucket: a
// second token-bucket gate after the class bucket, keyed by
// Request.Tenant, so one tenant's burst cannot spend a whole class's
// admission budget.
type TenantConfig struct {
	// Rate is the refill rate in tokens per clock cycle; zero or
	// negative disables rate limiting for the tenant.
	Rate float64
	// Burst is the bucket capacity (minimum 1 when Rate is set).
	Burst float64
}

// Config configures a Server.
type Config struct {
	// Engine is the shared protected-memory engine. Required.
	Engine *securemem.Concurrent
	// Clock is the shared service clock; nil allocates a fresh one.
	Clock *sim.Clock
	// Classes tunes each traffic class; zero entries take defaults from
	// DefaultConfig.
	Classes [NumClasses]ClassConfig
	// ShedAfter is the consecutive-link-refusal pressure at which the
	// degradation ladder starts shedding bulk traffic (2x sheds batch
	// too); zero selects DefaultShedAfter.
	ShedAfter int
	// RestoreAfter is how many consecutive successes step the ladder
	// back down one tier; zero selects DefaultRestoreAfter.
	RestoreAfter int
	// Tenants configures per-tenant admission buckets, keyed by
	// Request.Tenant. Requests tagged with a tenant absent from the map
	// are tracked in the per-tenant counters but never rate-limited;
	// untagged requests skip the tenant stage entirely.
	Tenants map[string]TenantConfig
}

// Degradation-ladder defaults.
const (
	DefaultShedAfter    = 8
	DefaultRestoreAfter = 16
)

// DefaultClasses returns the default per-class tuning: interactive is
// low-latency (tight deadline, modest retries, generous rate), batch is
// throughput-oriented, bulk is background filler admitted only when
// there is room.
func DefaultClasses() [NumClasses]ClassConfig {
	var c [NumClasses]ClassConfig
	c[Interactive] = ClassConfig{Rate: 0, Burst: 0, Queue: 64, Retries: 4, Deadline: 64}
	c[Batch] = ClassConfig{Rate: 0.50, Burst: 32, Queue: 32, Retries: 2, Deadline: 256}
	c[Bulk] = ClassConfig{Rate: 0.25, Burst: 16, Queue: 16, Retries: 1, Deadline: 1024}
	return c
}

// Request is one client operation. Exactly one of the read/write shapes
// is used: Write=false reads len(Buf) bytes at Addr into Buf, Write=true
// writes Data at Addr.
type Request struct {
	Class Class
	Addr  securemem.HomeAddr
	Write bool
	Data  []byte // write payload
	Buf   []byte // read destination

	// Tenant tags the request with a tenant identity for per-tenant
	// admission (Config.Tenants) and the per-tenant outcome rollup in
	// Report.Tenants. Empty opts out of both.
	Tenant string

	// Deadline is the absolute service-clock deadline; zero selects the
	// class default (relative to submission).
	Deadline sim.Cycle
	// Retries overrides the class retry budget when >= 0; pass -1 (or
	// leave the class default by using 0... see NoRetryOverride) to keep
	// the class default. Writes never retry regardless.
	Retries int
	// OnDone, when set, runs with the outcome before Do returns, while
	// the server still holds its engine lock — but only if the request
	// actually reached the engine. Admission-stage rejections (shed,
	// overload, pre-execution deadline) never touched engine state, so
	// OnDone is not called for them; classify those from Do's return
	// value. The engine-lock guarantee is what lets a client mutate its
	// oracle inside OnDone without racing a concurrent quiesce/snapshot.
	OnDone func(err error)
}

// tokenBucket is a deterministic token bucket refilled by clock cycles.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   sim.Cycle
}

// take refills for elapsed cycles and consumes one token if available.
func (b *tokenBucket) take(now sim.Cycle) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if now > b.last {
		b.tokens += float64(now-b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// degrade is the degradation ladder: a leaky pressure counter of link
// refusals with hysteresis between the shed and restore thresholds, so
// the tier does not flap request-by-request at a boundary.
type degrade struct {
	mu           sync.Mutex
	shedAfter    int
	restoreAfter int
	pressure     int // link refusals minus successes, floored at 0
	oks          int // consecutive successes toward a tier step-down
	tier         int // 0 healthy, 1 shed bulk, 2 shed bulk+batch
}

// observe folds one engine-touched outcome into the ladder.
func (d *degrade) observe(success, linkRefused bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case linkRefused:
		d.pressure++
		d.oks = 0
		if d.pressure >= 2*d.shedAfter {
			d.tier = 2
		} else if d.pressure >= d.shedAfter && d.tier < 1 {
			d.tier = 1
		}
	case success:
		if d.pressure > 0 {
			d.pressure--
		}
		d.oks++
		if d.tier > 0 && d.oks >= d.restoreAfter {
			d.tier--
			d.oks = 0
		}
	}
}

func (d *degrade) currentTier() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tier
}

// Server multiplexes client requests onto the shared engine.
//
// Lock order: Server.state -> Concurrent.mu (and its interior). Requests
// hold state shared for their whole engine interaction including the
// OnDone callback; WithQuiesced and SwapEngine hold it exclusively, so a
// snapshot or an engine swap can never interleave with a half-finished
// request's oracle update.
type Server struct {
	state sync.RWMutex // guards eng identity; see lock-order comment
	eng   *securemem.Concurrent

	clock   *sim.Clock
	classes [NumClasses]ClassConfig
	admit   [NumClasses]tokenBucket
	tadmit  map[string]*tokenBucket // per-tenant buckets; immutable after New
	slots   [NumClasses]chan struct{}
	deg     degrade
	closed  atomic.Bool

	mu   sync.Mutex // guards ops, lat, and tops
	ops  [NumClasses]stats.ServeOps
	lat  [NumClasses]stats.Histogram
	tops map[string]*stats.TenantOps
	tmax int // high-water tier, for reporting
}

// New builds a Server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = &sim.Clock{}
	}
	defaults := DefaultClasses()
	s := &Server{eng: cfg.Engine, clock: cfg.Clock}
	for c := Class(0); c < NumClasses; c++ {
		cc := cfg.Classes[c]
		if cc == (ClassConfig{}) {
			cc = defaults[c]
		}
		if cc.Queue < 1 {
			cc.Queue = 1
		}
		if cc.Rate > 0 && cc.Burst < 1 {
			cc.Burst = 1
		}
		s.classes[c] = cc
		b := &s.admit[c]
		b.rate, b.burst, b.tokens = cc.Rate, cc.Burst, cc.Burst
		s.slots[c] = make(chan struct{}, cc.Queue)
	}
	s.tadmit = make(map[string]*tokenBucket, len(cfg.Tenants))
	//salus-lint:ignore simclock builds a map from a map; the only error (an empty key) does not depend on the order
	for id, tc := range cfg.Tenants {
		if id == "" {
			return nil, errors.New("serve: Config.Tenants key must be non-empty")
		}
		if tc.Rate > 0 && tc.Burst < 1 {
			tc.Burst = 1
		}
		s.tadmit[id] = &tokenBucket{rate: tc.Rate, burst: tc.Burst, tokens: tc.Burst}
	}
	s.tops = make(map[string]*stats.TenantOps)
	s.deg.shedAfter = cfg.ShedAfter
	if s.deg.shedAfter <= 0 {
		s.deg.shedAfter = DefaultShedAfter
	}
	s.deg.restoreAfter = cfg.RestoreAfter
	if s.deg.restoreAfter <= 0 {
		s.deg.restoreAfter = DefaultRestoreAfter
	}
	return s, nil
}

// Clock returns the shared service clock.
func (s *Server) Clock() *sim.Clock {
	s.state.RLock()
	defer s.state.RUnlock()
	return s.clock
}

// Tier returns the current degradation tier (0 = healthy). Like
// Snapshot, it reads the degradation state under the counter mutex.
func (s *Server) Tier() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deg.currentTier()
}

// Close marks the server closed; subsequent Do calls fail with
// ErrClosed. In-flight requests complete normally. Publishing under the
// counter mutex orders the close against concurrent Snapshot calls.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed.Store(true)
}

// shedClass reports whether the current tier sheds class c.
func (s *Server) shedClass(c Class) (bool, int) {
	t := s.deg.currentTier()
	return (t >= 1 && c == Bulk) || (t >= 2 && c == Batch), t
}

// retryable reports whether an engine failure may be retried for an
// idempotent request: transports recover (transient faults, link
// refusals, a momentarily full writeback queue); media verdicts and
// integrity verdicts do not.
func retryable(err error) bool {
	return errors.Is(err, securemem.ErrTransient) ||
		errors.Is(err, securemem.ErrLinkDown) ||
		errors.Is(err, securemem.ErrDegraded) ||
		errors.Is(err, securemem.ErrQueueFull)
}

// linkRefused reports whether an engine failure signals link pressure,
// feeding the degradation ladder.
func linkRefused(err error) bool {
	return errors.Is(err, securemem.ErrLinkDown) ||
		errors.Is(err, securemem.ErrDegraded) ||
		errors.Is(err, securemem.ErrQueueFull)
}

// Do runs one request through the full pipeline and returns its typed
// outcome. It is safe for any number of goroutines.
func (s *Server) Do(req *Request) error {
	c := req.Class
	if c < 0 || c >= NumClasses {
		return fmt.Errorf("serve: invalid class %d", int(c))
	}
	if s.closed.Load() {
		return ErrClosed
	}
	if shed, tier := s.shedClass(c); shed {
		s.finish(c, func(o *stats.ServeOps) { o.Shed++ })
		s.finishTenant(req.Tenant, func(o *stats.TenantOps) { o.Quota++ })
		return fmt.Errorf("%w: class %v at tier %d", ErrShed, c, tier)
	}
	if !s.admit[c].take(s.clock.Now()) {
		s.finish(c, func(o *stats.ServeOps) { o.Overload++ })
		s.finishTenant(req.Tenant, func(o *stats.TenantOps) { o.Quota++ })
		return fmt.Errorf("%w: class %v token bucket empty", ErrOverload, c)
	}
	if tb := s.tadmit[req.Tenant]; tb != nil && !tb.take(s.clock.Now()) {
		s.finish(c, func(o *stats.ServeOps) { o.Overload++ })
		s.finishTenant(req.Tenant, func(o *stats.TenantOps) { o.Quota++ })
		return fmt.Errorf("%w: tenant %q token bucket empty", ErrOverload, req.Tenant)
	}
	select {
	case s.slots[c] <- struct{}{}:
	default:
		s.finish(c, func(o *stats.ServeOps) { o.Overload++ })
		s.finishTenant(req.Tenant, func(o *stats.TenantOps) { o.Quota++ })
		return fmt.Errorf("%w: class %v queue full (%d in flight)", ErrOverload, c, cap(s.slots[c]))
	}
	defer func() { <-s.slots[c] }()

	s.state.RLock()
	defer s.state.RUnlock()
	return s.run(req, c)
}

// run is the execution loop; the caller holds the engine read lock.
func (s *Server) run(req *Request, c Class) error {
	cc := s.classes[c]
	start := s.clock.Now()
	deadline := req.Deadline
	if deadline == 0 && cc.Deadline > 0 {
		deadline = start + cc.Deadline
	}
	budget := cc.Retries
	if req.Retries > 0 {
		budget = req.Retries
	}
	if req.Write {
		budget = 0
	}

	var err error
	touched := false
	retries := 0
	for attempt := 0; ; attempt++ {
		if deadline != 0 && s.clock.Now() >= deadline && attempt > 0 {
			err = fmt.Errorf("%w: class %v after %d attempts", ErrDeadline, c, attempt)
			break
		}
		err = s.exec(req)
		touched = true
		if err == nil {
			break
		}
		if req.Write {
			// Both sentinels stay visible to errors.Is: the service verdict
			// (ambiguous) and the engine cause (link, fault, ...).
			err = fmt.Errorf("%w: %w", ErrAmbiguous, err)
			break
		}
		if !retryable(err) {
			break
		}
		if attempt >= budget {
			err = fmt.Errorf("%w (budget %d): %w", ErrRetryBudget, budget, err)
			break
		}
		retries++
		// Exponential backoff between retries, charged to the service
		// clock (capped at 64 cycles): this is what arms the deadline
		// check — a request burning its budget against a down link runs
		// out of time, not just attempts.
		shift := attempt
		if shift > 6 {
			shift = 6
		}
		s.clock.Advance(sim.Cycle(1) << uint(shift))
	}
	latency := s.clock.Now() - start

	s.deg.observe(err == nil, linkRefused(err))
	s.finish(c, func(o *stats.ServeOps) {
		o.Retries += uint64(retries)
		switch {
		case err == nil:
			o.Served++
		case errors.Is(err, ErrDeadline):
			o.Deadline++
		case errors.Is(err, ErrAmbiguous):
			o.Ambiguous++
			o.Refused++
		default:
			o.Refused++
		}
		if err == nil {
			s.lat[c].Observe(uint64(latency))
		}
	})
	s.finishTenant(req.Tenant, func(o *stats.TenantOps) {
		if req.Write {
			o.Writes++
		} else {
			o.Reads++
		}
		if err != nil {
			o.Faults++
		}
	})
	if touched && req.OnDone != nil {
		req.OnDone(err)
	}
	return err
}

// exec performs one engine attempt, charging one service cycle.
func (s *Server) exec(req *Request) error {
	s.clock.Advance(1)
	if req.Write {
		return s.eng.Write(req.Addr, req.Data)
	}
	return s.eng.Read(req.Addr, req.Buf)
}

// finish applies one outcome to the per-class counters.
func (s *Server) finish(c Class, f func(*stats.ServeOps)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.ops[c])
	if t := s.deg.currentTier(); t > s.tmax {
		s.tmax = t
	}
}

// finishTenant applies one outcome to a tenant's rollup counters; the
// empty tenant (an untagged request) is not tracked.
func (s *Server) finishTenant(id string, f func(*stats.TenantOps)) {
	if id == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.tops[id]
	if o == nil {
		o = &stats.TenantOps{Name: id}
		s.tops[id] = o
	}
	f(o)
}

// WithQuiesced runs fn with every request drained and excluded: fn owns
// the engine single-threadedly for its duration. Checkpoints, crash
// recovery swaps, and oracle snapshots run here — the exclusive lock is
// what makes a snapshot atomic with respect to OnDone oracle updates.
func (s *Server) WithQuiesced(fn func(eng *securemem.Concurrent) error) error {
	s.state.Lock()
	defer s.state.Unlock()
	return fn(s.eng)
}

// SwapEngine atomically replaces the engine (crash recovery: the old
// engine's device state is gone, the new one was rebuilt by Recover).
// It waits for in-flight requests to drain first.
func (s *Server) SwapEngine(eng *securemem.Concurrent) {
	s.state.Lock()
	defer s.state.Unlock()
	s.eng = eng
}

// WithQuiescedSwap runs fn quiesced like WithQuiesced and atomically
// installs the engine fn returns (nil keeps the current one). This is
// the crash-recovery primitive for a server with live clients: the
// rebuilt engine and the clients' oracle rewinds must become visible in
// the same exclusion, or a request draining between them would verify
// recovered bytes against a pre-crash oracle. On error nothing is
// swapped.
func (s *Server) WithQuiescedSwap(fn func(old *securemem.Concurrent) (*securemem.Concurrent, error)) error {
	s.state.Lock()
	defer s.state.Unlock()
	eng, err := fn(s.eng)
	if err != nil {
		return err
	}
	if eng != nil {
		s.eng = eng
	}
	return nil
}

// Engine returns the current engine. The caller must not retain it
// across a SwapEngine; quiesced phases should prefer WithQuiesced.
func (s *Server) Engine() *securemem.Concurrent {
	s.state.RLock()
	defer s.state.RUnlock()
	return s.eng
}

// Report is a consistent copy of the service counters and latency
// histograms.
type Report struct {
	Ops     [NumClasses]stats.ServeOps
	Latency [NumClasses]stats.Histogram
	// Tenants is the per-tenant rollup for tenant-tagged requests,
	// sorted by name: Reads/Writes count requests that reached the
	// execution loop, Quota counts admission refusals (shed, class or
	// tenant bucket, queue full), and Faults sub-classifies executed
	// requests that failed.
	Tenants []stats.TenantOps
	// Tier is the degradation tier at snapshot time; PeakTier the
	// highest tier the run ever reached.
	Tier     int
	PeakTier int
}

// Snapshot returns a consistent Report.
func (s *Server) Snapshot() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Report{Ops: s.ops, Latency: s.lat, Tier: s.deg.currentTier(), PeakTier: s.tmax}
	r.Tenants = make([]stats.TenantOps, 0, len(s.tops))
	//salus-lint:ignore simclock the rollup is sorted by name below
	for _, o := range s.tops {
		r.Tenants = append(r.Tenants, *o)
	}
	sort.Slice(r.Tenants, func(i, j int) bool { return r.Tenants[i].Name < r.Tenants[j].Name })
	return r
}

// Availability returns class c's served fraction (1 when the class never
// submitted anything).
func (r *Report) Availability(c Class) float64 {
	o := r.Ops[c]
	att := o.Attempts()
	if att == 0 {
		return 1
	}
	return float64(o.Served) / float64(att)
}

// FillOps copies the per-class counters into a stats.Ops block.
func (r *Report) FillOps(o *stats.Ops) {
	o.Serve = r.Ops
	o.Tenants = append([]stats.TenantOps(nil), r.Tenants...)
}

// TenantTable renders the per-tenant rollup (empty table when no
// request was tenant-tagged).
func (r *Report) TenantTable() *stats.Table {
	o := stats.Ops{Tenants: r.Tenants}
	return o.TenantTable()
}

// OutcomeTable renders the per-class outcome counters with availability.
func (r *Report) OutcomeTable() *stats.Table {
	t := &stats.Table{Header: []string{"class", "served", "shed", "deadline", "overload", "refused", "retries", "ambiguous", "avail"}}
	for c := Class(0); c < NumClasses; c++ {
		o := r.Ops[c]
		t.AddRow(c.String(),
			fmt.Sprintf("%d", o.Served), fmt.Sprintf("%d", o.Shed),
			fmt.Sprintf("%d", o.Deadline), fmt.Sprintf("%d", o.Overload),
			fmt.Sprintf("%d", o.Refused), fmt.Sprintf("%d", o.Retries),
			fmt.Sprintf("%d", o.Ambiguous), fmt.Sprintf("%.4f", r.Availability(c)))
	}
	return t
}

// LatencyTable renders the per-class served-latency quantiles in service
// cycles: the p50/p99/p999 row set the availability SLOs are stated
// over.
func (r *Report) LatencyTable() *stats.Table {
	t := &stats.Table{Header: stats.QuantileHeader("class")}
	for c := Class(0); c < NumClasses; c++ {
		h := r.Latency[c]
		t.AddRow(append([]string{c.String()}, h.QuantileRow()...)...)
	}
	return t
}

// Merge folds o's counters and histograms into r (campaign aggregation).
func (r *Report) Merge(o *Report) {
	for c := Class(0); c < NumClasses; c++ {
		a, b := &r.Ops[c], &o.Ops[c]
		a.Served += b.Served
		a.Shed += b.Shed
		a.Deadline += b.Deadline
		a.Overload += b.Overload
		a.Refused += b.Refused
		a.Retries += b.Retries
		a.Ambiguous += b.Ambiguous
		r.Latency[c].Merge(&o.Latency[c])
	}
	if o.PeakTier > r.PeakTier {
		r.PeakTier = o.PeakTier
	}
	if len(o.Tenants) > 0 {
		byName := make(map[string]int, len(r.Tenants))
		for i := range r.Tenants {
			byName[r.Tenants[i].Name] = i
		}
		for _, t := range o.Tenants {
			i, ok := byName[t.Name]
			if !ok {
				r.Tenants = append(r.Tenants, t)
				continue
			}
			r.Tenants[i].Add(&t)
		}
		sort.Slice(r.Tenants, func(i, j int) bool { return r.Tenants[i].Name < r.Tenants[j].Name })
	}
}
