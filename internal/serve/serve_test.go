package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/oracle"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/stats"
)

func testGeo() config.Geometry {
	return config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096}
}

func testEngine(t *testing.T, pages, devPages, shards int) *securemem.Concurrent {
	t.Helper()
	eng, err := securemem.NewConcurrent(securemem.Config{
		Geometry: testGeo(), Model: securemem.ModelSalus,
		TotalPages: pages, DevicePages: devPages, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testServer(t *testing.T, eng *securemem.Concurrent, cfg Config) *Server {
	t.Helper()
	cfg.Engine = eng
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHealthyTraffic runs several concurrent clients over a healthy
// engine: everything is served, the oracles stay clean, and the
// counters conserve (every submitted request has exactly one outcome).
func TestHealthyTraffic(t *testing.T) {
	eng := testEngine(t, 16, 4, 4)
	srv := testServer(t, eng, Config{})

	const nClients, ops = 6, 60
	clients := make([]*Client, nClients)
	region := 16 * 4096 / nClients
	for i := range clients {
		c, err := NewClient(ClientConfig{
			ID: i, Class: Class(i % int(NumClasses)),
			Base: securemem.HomeAddr(i * region), Len: region,
			Ops: ops, Seed: int64(1000 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) { defer wg.Done(); c.Run(srv) }(c)
	}
	wg.Wait()

	rep := srv.Snapshot()
	var att uint64
	for c := Class(0); c < NumClasses; c++ {
		att += rep.Ops[c].Attempts()
	}
	if att != nClients*ops {
		t.Fatalf("outcome conservation: %d outcomes for %d requests", att, nClients*ops)
	}
	for _, c := range clients {
		if v := c.Violations(); len(v) > 0 {
			t.Fatalf("healthy run violations: %v", v)
		}
		if c.Oracle().Ambiguities() != 0 {
			t.Fatalf("healthy run left %d tainted bytes", c.Oracle().Ambiguities())
		}
		if v := c.VerifyFinal(eng.Read); len(v) > 0 {
			t.Fatalf("final sweep: %v", v)
		}
	}
	// Healthy bulk/batch may see token-bucket overloads but never shed.
	for c := Class(0); c < NumClasses; c++ {
		if rep.Ops[c].Shed != 0 {
			t.Fatalf("healthy run shed class %v", c)
		}
	}
	if rep.Ops[Interactive].Served == 0 {
		t.Fatal("interactive served nothing")
	}
	if rep.Latency[Interactive].Count() != rep.Ops[Interactive].Served {
		t.Fatal("latency histogram counts != served count")
	}
}

// TestTokenBucketOverloadTyped pins the admission fast-fail: an empty
// bucket refuses with ErrOverload before touching the engine.
func TestTokenBucketOverloadTyped(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	cfg := Config{}
	cfg.Classes[Bulk] = ClassConfig{Rate: 1e-9, Burst: 1, Queue: 4, Retries: 1}
	srv := testServer(t, eng, cfg)

	buf := make([]byte, 8)
	if err := srv.Do(&Request{Class: Bulk, Addr: 0, Buf: buf}); err != nil {
		t.Fatalf("first bulk request: %v", err)
	}
	err := srv.Do(&Request{Class: Bulk, Addr: 0, Buf: buf, OnDone: func(error) {
		t.Error("OnDone ran for an admission-refused request")
	}})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("second bulk request: %v, want ErrOverload", err)
	}
	rep := srv.Snapshot()
	if rep.Ops[Bulk].Overload != 1 || rep.Ops[Bulk].Served != 1 {
		t.Fatalf("bulk counters: %+v", rep.Ops[Bulk])
	}
}

// TestQueueBoundTyped pins the bounded-queue fast-fail: with the class's
// one slot held by an in-flight request, the next request fails
// ErrOverload instead of buffering.
func TestQueueBoundTyped(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	cfg := Config{}
	cfg.Classes[Batch] = ClassConfig{Queue: 1, Retries: 1}
	srv := testServer(t, eng, cfg)

	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		buf := make([]byte, 8)
		srv.Do(&Request{Class: Batch, Addr: 0, Buf: buf, OnDone: func(error) {
			close(held)
			<-hold // keep the slot occupied
		}})
	}()
	<-held
	err := srv.Do(&Request{Class: Batch, Addr: 0, Buf: make([]byte, 8)})
	close(hold)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("request against a full queue: %v, want ErrOverload", err)
	}
}

// TestDeadlineTyped pins deadline enforcement: a read retrying against a
// down link runs out of service-clock budget and fails ErrDeadline, not
// a transport error.
func TestDeadlineTyped(t *testing.T) {
	eng := testEngine(t, 8, 2, 1)
	manual := link.NewManual()
	eng.AttachLink(link.New(manual, link.Config{Threshold: 1000, Cooldown: 1}), nil, 4)
	cfg := Config{}
	cfg.Classes[Interactive] = ClassConfig{Queue: 4, Retries: 100, Deadline: 3}
	srv := testServer(t, eng, cfg)

	manual.Set(link.StateDown)
	var cbErr error
	err := srv.Do(&Request{
		Class: Interactive, Addr: 6 * 4096, Buf: make([]byte, 8),
		OnDone: func(e error) { cbErr = e },
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("read past deadline: %v, want ErrDeadline", err)
	}
	if !errors.Is(cbErr, ErrDeadline) {
		t.Fatalf("OnDone got %v, want the ErrDeadline outcome", cbErr)
	}
	rep := srv.Snapshot()
	if rep.Ops[Interactive].Deadline != 1 {
		t.Fatalf("deadline counter: %+v", rep.Ops[Interactive])
	}
	if rep.Ops[Interactive].Retries == 0 {
		t.Fatal("deadline loop recorded no retries")
	}
}

// TestDegradationTiers drives the ladder end to end: link pressure sheds
// bulk first, then batch, never interactive; recovery restores service
// in reverse order.
func TestDegradationTiers(t *testing.T) {
	eng := testEngine(t, 8, 2, 1)
	manual := link.NewManual()
	eng.AttachLink(link.New(manual, link.Config{Threshold: 1000, Cooldown: 1}), nil, 4)
	cfg := Config{ShedAfter: 4, RestoreAfter: 2}
	cfg.Classes[Interactive] = ClassConfig{Queue: 4}
	cfg.Classes[Batch] = ClassConfig{Queue: 4}
	cfg.Classes[Bulk] = ClassConfig{Queue: 4}
	srv := testServer(t, eng, cfg)

	miss := func(class Class) error {
		return srv.Do(&Request{Class: class, Addr: 6 * 4096, Buf: make([]byte, 8)})
	}
	manual.Set(link.StateDown)
	for i := 0; i < 4; i++ {
		if err := miss(Interactive); !errors.Is(err, ErrRetryBudget) {
			t.Fatalf("interactive miss %d under outage: %v, want ErrRetryBudget", i, err)
		}
	}
	if srv.Tier() != 1 {
		t.Fatalf("tier after %d link refusals = %d, want 1", 4, srv.Tier())
	}
	if err := miss(Bulk); !errors.Is(err, ErrShed) {
		t.Fatalf("bulk at tier 1: %v, want ErrShed", err)
	}
	if err := miss(Batch); errors.Is(err, ErrShed) {
		t.Fatal("batch shed at tier 1")
	}
	for i := 0; i < 4; i++ {
		miss(Interactive)
	}
	if srv.Tier() != 2 {
		t.Fatalf("tier after sustained refusals = %d, want 2", srv.Tier())
	}
	if err := miss(Batch); !errors.Is(err, ErrShed) {
		t.Fatalf("batch at tier 2: %v, want ErrShed", err)
	}
	// Interactive is never shed — and device hits keep serving even now.
	if err := srv.Do(&Request{Class: Interactive, Addr: 0, Data: []byte("hit"), Write: true}); err != nil {
		// Address 0 may not be resident yet; a typed refusal is fine,
		// shedding is not.
		if errors.Is(err, ErrShed) {
			t.Fatal("interactive shed")
		}
	}

	manual.Set(link.StateUp)
	for i := 0; i < 16 && srv.Tier() > 0; i++ {
		if err := miss(Interactive); err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
	}
	if srv.Tier() != 0 {
		t.Fatalf("tier after recovery = %d, want 0", srv.Tier())
	}
	if err := miss(Bulk); err != nil {
		t.Fatalf("bulk after recovery: %v", err)
	}
	rep := srv.Snapshot()
	if rep.PeakTier != 2 {
		t.Fatalf("PeakTier = %d, want 2", rep.PeakTier)
	}
	if rep.Ops[Interactive].Shed != 0 {
		t.Fatal("interactive recorded sheds")
	}
}

// TestCheckpointCrashSwap pins the crash-recovery composition the chaos
// campaign relies on: quiesced checkpoint + oracle snapshot, traffic,
// crash to the checkpoint via Recover + ConcurrentFrom + SwapEngine +
// oracle restore, then more traffic and a clean final sweep.
func TestCheckpointCrashSwap(t *testing.T) {
	eng := testEngine(t, 8, 4, 2)
	srv := testServer(t, eng, Config{})
	store := crash.NewMemStore()
	j := crash.NewJournal(store)

	c, err := NewClient(ClientConfig{ID: 0, Class: Interactive, Base: 0, Len: 2 * 4096, Ops: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(srv)

	var root securemem.TrustedRoot
	var snap *oracle.Bytes
	if err := srv.WithQuiesced(func(e *securemem.Concurrent) error {
		var err error
		root, err = e.Checkpoint(j)
		if err != nil {
			return err
		}
		snap = c.Oracle().Snapshot()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	c.Run(srv) // post-checkpoint traffic that the crash will erase

	sys, err := securemem.Recover(securemem.Config{
		Geometry: testGeo(), Model: securemem.ModelSalus, TotalPages: 8, DevicePages: 4,
	}, store.Bytes(), root)
	if err != nil {
		t.Fatal(err)
	}
	srv.SwapEngine(securemem.ConcurrentFrom(sys, 2))
	c.Oracle().Restore(snap)

	c.Run(srv) // post-crash traffic against the recovered engine

	if v := c.Violations(); len(v) > 0 {
		t.Fatalf("violations across crash: %v", v)
	}
	if v := c.VerifyFinal(srv.Engine().Read); len(v) > 0 {
		t.Fatalf("final sweep across crash: %v", v)
	}
}

// TestInvalidRequests covers the guard rails.
func TestInvalidRequests(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	srv := testServer(t, eng, Config{})
	if err := srv.Do(&Request{Class: Class(9)}); err == nil {
		t.Fatal("invalid class accepted")
	}
	srv.Close()
	if err := srv.Do(&Request{Class: Interactive, Buf: make([]byte, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("request after Close: %v, want ErrClosed", err)
	}
	if _, err := NewClient(ClientConfig{Len: 0}); err == nil {
		t.Fatal("zero-length client region accepted")
	}
	if _, err := NewClient(ClientConfig{Len: 8, Class: Class(9)}); err == nil {
		t.Fatal("invalid client class accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without engine accepted")
	}
}

// faultFirstN faults the first n injector consultations with transient
// faults, then passes everything.
type faultFirstN struct{ n *int }

func (f faultFirstN) Inject(fault.Access) *fault.Fault {
	if *f.n > 0 {
		*f.n--
		return &fault.Fault{Kind: fault.Transient}
	}
	return nil
}

var _ fault.Injector = faultFirstN{}

// zeroEngineRetries is the engine-level policy service mode uses: the
// serve layer owns the retry budget, so the engine gets exactly one
// attempt per request attempt.
func zeroEngineRetries() securemem.RetryPolicy {
	return securemem.RetryPolicy{MaxRetries: 0, BaseBackoff: 1, MaxBackoff: 1}
}

// TestTenantAdmissionAndRollup pins the per-tenant stage: a tenant with
// a tight bucket is refused with ErrOverload once its burst is spent
// while a sibling tenant on the same class keeps serving, every
// tenant-tagged outcome lands in exactly one rollup counter, and
// untagged requests stay out of the table entirely.
func TestTenantAdmissionAndRollup(t *testing.T) {
	eng := testEngine(t, 8, 2, 2)
	cfg := Config{Tenants: map[string]TenantConfig{
		"metered": {Rate: 1e-9, Burst: 2},
	}}
	srv := testServer(t, eng, cfg)

	buf := make([]byte, 8)
	do := func(tenant string, write bool) error {
		req := &Request{Class: Interactive, Addr: 0, Tenant: tenant}
		if write {
			req.Write, req.Data = true, []byte{1, 2, 3, 4}
		} else {
			req.Buf = buf
		}
		return srv.Do(req)
	}

	const metered, free = 8, 6
	var quotaHits int
	for i := 0; i < metered; i++ {
		err := do("metered", i%2 == 0)
		if errors.Is(err, ErrOverload) {
			quotaHits++
		} else if err != nil {
			t.Fatalf("metered request %d: %v", i, err)
		}
	}
	if quotaHits != metered-2 {
		t.Fatalf("metered tenant: %d quota refusals, want %d (burst 2)", quotaHits, metered-2)
	}
	for i := 0; i < free; i++ {
		if err := do("free", false); err != nil {
			t.Fatalf("free tenant request %d: %v", i, err)
		}
	}
	// An untagged request must not create a tenant row.
	if err := do("", false); err != nil {
		t.Fatalf("untagged request: %v", err)
	}

	rep := srv.Snapshot()
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenant rows: %d, want 2 (%+v)", len(rep.Tenants), rep.Tenants)
	}
	if rep.Tenants[0].Name != "free" || rep.Tenants[1].Name != "metered" {
		t.Fatalf("tenant rows not sorted by name: %+v", rep.Tenants)
	}
	m := rep.Tenants[1]
	if m.Quota != uint64(quotaHits) || m.Attempts() != metered {
		t.Fatalf("metered rollup: %+v, want %d quota over %d attempts", m, quotaHits, metered)
	}
	if m.Reads+m.Writes != 2 || m.Faults != 0 {
		t.Fatalf("metered rollup executed %d reads + %d writes (faults %d), want 2 total", m.Reads, m.Writes, m.Faults)
	}
	f := rep.Tenants[0]
	if f.Reads != free || f.Quota != 0 || f.Attempts() != free {
		t.Fatalf("free rollup: %+v, want %d clean reads", f, free)
	}
	table := rep.TenantTable().String()
	for _, want := range []string{"tenant", "quota", "metered", "free"} {
		if !strings.Contains(table, want) {
			t.Fatalf("tenant table missing %q:\n%s", want, table)
		}
	}

	// Merge folds rollups by name and keeps the order stable.
	other := Report{Tenants: []stats.TenantOps{{Name: "metered", Reads: 3}, {Name: "zeta", Writes: 1}}}
	rep.Merge(&other)
	if len(rep.Tenants) != 3 || rep.Tenants[2].Name != "zeta" {
		t.Fatalf("merge rows: %+v", rep.Tenants)
	}
	if got := rep.Tenants[1]; got.Name != "metered" || got.Reads != m.Reads+3 {
		t.Fatalf("merge did not fold metered reads: %+v", got)
	}
}
