package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
)

// The serving engine of serve-mixed and migrate-live: an 8 MiB Salus
// home space over a 2 MiB device tier.
const (
	homePages   = 2048
	deviceFrame = 512
	// hotFrac is the share of a client's region that takes hotReqFrac of
	// its requests: 384 hot pages in all, which fit the device tier
	// together while the cold remainder keeps migrating pages in.
	hotFrac    = 0.1875
	readFrac   = 0.70
	hotReqFrac = 0.80
	minSpan    = 32
	maxSpan    = 256
	// callsPerSec is a client's expected request rate with headroom: it
	// sizes the latency buffer so appends never copy it mid-run.
	callsPerSec = 100000
)

var geometry = config.Default().Geometry

// client is one closed-loop caller of serve.Server.Do: it sends its next
// request only after the last one returns, over a region no other
// client touches, and checks every read against its shadow copy.
type client struct {
	srv    *serve.Server
	base   securemem.HomeAddr // region start in engine addresses
	shadow []byte             // what the region must hold
	hot    int                // bytes at the region start that take hotReqFrac of requests
	rng    *rand.Rand

	req     serve.Request
	buf     []byte
	pending int // offset of the write in flight, applied by onDone

	lat      []float64    // Do latencies in client-thread CPU time, ms
	wallLat  []float64    // the same Do latencies in wall time, ms
	cpu      float64      // client-thread CPU seconds across loop
	maxLat   atomic.Int64 // longest Do wall latency in ns since takeMaxLatency
	calls    int
	failed   int
	firstBad string
}

func newClient(srv *serve.Server, base securemem.HomeAddr, shadow []byte, seed int64) *client {
	c := &client{srv: srv, base: base, shadow: shadow, rng: rand.New(rand.NewSource(seed)), buf: make([]byte, maxSpan)}
	c.hot = int(float64(len(shadow))*hotFrac) / geometry.PageSize * geometry.PageSize
	c.req.Class = serve.Interactive
	c.req.OnDone = c.onDone
	return c
}

// reserve sizes the latency buffers for a timed phase of d. Growing them
// by append would leave copies behind whose collection, early or late,
// swings the peak resident set from run to run.
func (c *client) reserve(d time.Duration) {
	n := int(d.Seconds() * callsPerSec)
	c.lat, c.wallLat = make([]float64, 0, n), make([]float64, 0, n)
}

// onDone runs under the server's engine lock, so a write lands in the
// shadow atomically with respect to a quiesced cutover.
func (c *client) onDone(err error) {
	if err == nil && c.req.Write {
		copy(c.shadow[c.pending:], c.req.Data)
	}
}

func (c *client) bad(format string, args ...any) {
	c.failed++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf(format, args...)
	}
}

// loop issues requests until stop is set. One Do in doSpanEvery is
// recorded as a span under parent.
//
// Do runs entirely on the calling goroutine, so loop pins it to its OS
// thread and times each Do in that thread's CPU time: on a shared host
// the wall time of a 10 µs call carries the hypervisor's steal and the
// scheduler's choices, not the program's. The wall time of each Do is
// still kept for takeMaxLatency, because a blackout is spent waiting.
func (c *client) loop(stop *atomic.Bool, tr *tracer, parent int64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	loop0 := threadCPUNanos()
	defer func() { c.cpu += float64(threadCPUNanos()-loop0) / 1e9 }()
	for !stop.Load() {
		n := minSpan + c.rng.Intn(maxSpan-minSpan+1)
		limit := len(c.shadow)
		if c.rng.Float64() < hotReqFrac {
			limit = c.hot
		}
		off := c.rng.Intn(limit - n + 1)
		write := c.rng.Float64() >= readFrac
		c.req.Addr = c.base + securemem.HomeAddr(off)
		c.req.Write = write
		if write {
			c.rng.Read(c.buf[:n])
			c.req.Data, c.req.Buf = c.buf[:n], nil
			c.pending = off
		} else {
			c.req.Data, c.req.Buf = nil, c.buf[:n]
		}
		sampled := tr != nil && c.calls%doSpanEvery == 0
		var id int64
		if sampled {
			id = tr.open()
		}
		t0, cpu0 := time.Now(), threadCPUNanos()
		err := c.srv.Do(&c.req)
		cpu1, t1 := threadCPUNanos(), time.Now()
		if sampled {
			op := "read"
			if write {
				op = "write"
			}
			tr.close(id, parent, "serve.Do", op, t0, t1)
		}
		c.calls++
		switch {
		case err != nil:
			c.bad("Do at %d (+%d B, write=%v): %v", off, n, write, err)
		case !write && !bytes.Equal(c.buf[:n], c.shadow[off:off+n]):
			c.bad("read at %d (+%d B) differs from the shadow copy", off, n)
		default:
			c.lat = append(c.lat, float64(cpu1-cpu0)/1e6)
			c.wallLat = append(c.wallLat, t1.Sub(t0).Seconds()*1e3)
		}
		for d, old := t1.Sub(t0).Nanoseconds(), c.maxLat.Load(); d > old && !c.maxLat.CompareAndSwap(old, d); old = c.maxLat.Load() {
		}
	}
}

// takeMaxLatency returns the longest Do latency, in seconds, since the
// last call, and starts a new window. It is safe while loop runs.
func (c *client) takeMaxLatency() float64 {
	return float64(c.maxLat.Swap(0)) / 1e9
}

// verifyAll reads the whole region back through eng and compares it
// with the shadow copy.
func (c *client) verifyAll(eng *securemem.Concurrent) error {
	page := make([]byte, geometry.PageSize)
	for off := 0; off < len(c.shadow); off += len(page) {
		if err := eng.Read(c.base+securemem.HomeAddr(off), page); err != nil {
			return fmt.Errorf("read-back at %d: %w", off, err)
		}
		if !bytes.Equal(page, c.shadow[off:off+len(page)]) {
			return fmt.Errorf("read-back at %d differs from the shadow copy", off)
		}
	}
	return nil
}

// fill writes seeded random bytes over n bytes at base through write and
// returns them as the initial shadow copy.
func fill(write func(securemem.HomeAddr, []byte) error, base securemem.HomeAddr, n int, rng *rand.Rand) ([]byte, error) {
	data := make([]byte, n)
	rng.Read(data)
	for off := 0; off < n; off += geometry.PageSize {
		if err := write(base+securemem.HomeAddr(off), data[off:off+geometry.PageSize]); err != nil {
			return nil, fmt.Errorf("pre-write at %d: %w", off, err)
		}
	}
	return data, nil
}

// memOps is the slice of securemem.OpStats the per-layer metrics use.
type memOps struct {
	ops, migrIn, evict, collapse, lazyMAC, cleanSkip, dirtyWB, macV, bmtV, bmtU float64
}

func memOpsOf(s securemem.OpStats) memOps {
	return memOps{
		ops: float64(s.Reads + s.Writes), migrIn: float64(s.PageMigrationsIn), evict: float64(s.PageEvictions),
		collapse: float64(s.CollapseReEncryptions), lazyMAC: float64(s.LazyMACFetches),
		cleanSkip: float64(s.CleanChunksSkipped), dirtyWB: float64(s.DirtyChunkWritebacks),
		macV: float64(s.MACVerifies), bmtV: float64(s.BMTVerifies), bmtU: float64(s.BMTUpdates),
	}
}

// add accumulates the activity between two snapshots of one engine.
func (m *memOps) add(before, after memOps) {
	m.ops += after.ops - before.ops
	m.migrIn += after.migrIn - before.migrIn
	m.evict += after.evict - before.evict
	m.collapse += after.collapse - before.collapse
	m.lazyMAC += after.lazyMAC - before.lazyMAC
	m.cleanSkip += after.cleanSkip - before.cleanSkip
	m.dirtyWB += after.dirtyWB - before.dirtyWB
	m.macV += after.macV - before.macV
	m.bmtV += after.bmtV - before.bmtV
	m.bmtU += after.bmtU - before.bmtU
}

// serveLayers records the service and engine counters of a timed phase.
func serveLayers(res *result, srv *serve.Server, m memOps) {
	rep := srv.Snapshot()
	o := rep.Ops[serve.Interactive]
	res.layer["serve.calls"] = float64(o.Attempts())
	res.layer["serve.refused"] = float64(o.Shed + o.Deadline + o.Overload + o.Refused)
	res.layer["serve.retries"] = float64(o.Retries)
	res.layer["serve.sim_p99_cycles"] = float64(rep.Latency[serve.Interactive].P(0.99))
	res.layer["securemem.device_hit_ratio"] = 1 - ratio(m.migrIn, m.ops)
	res.layer["securemem.migrations_in_per_kop"] = 1e3 * ratio(m.migrIn, m.ops)
	res.layer["securemem.evictions_per_kop"] = 1e3 * ratio(m.evict, m.ops)
	res.layer["securemem.collapse_reenc_per_op"] = ratio(m.collapse, m.ops)
	res.layer["securemem.lazy_mac_per_op"] = ratio(m.lazyMAC, m.ops)
	res.layer["securemem.clean_chunk_skip_ratio"] = ratio(m.cleanSkip, m.cleanSkip+m.dirtyWB)
	res.layer["securemem.mac_verifies_per_op"] = ratio(m.macV, m.ops)
	res.layer["securemem.bmt_verifies_per_op"] = ratio(m.bmtV, m.ops)
	res.layer["securemem.bmt_updates_per_op"] = ratio(m.bmtU, m.ops)
}

// gather moves one latency buffer of every client into a single slice.
func gather(clients []*client, buf func(*client) *[]float64) []float64 {
	var n int
	for _, c := range clients {
		n += len(*buf(c))
	}
	all := make([]float64, 0, n)
	for _, c := range clients {
		all = append(all, *buf(c)...)
		*buf(c) = nil
	}
	return all
}

// noteServe adds the clients' outcomes, their CPU-time latencies as the
// gated samples, and the named serve metrics, which are on wall time.
func noteServe(res *result, clients []*client, wall float64) {
	res.lat = gather(clients, func(c *client) *[]float64 { return &c.lat })
	wallLat := gather(clients, func(c *client) *[]float64 { return &c.wallLat })
	sort.Float64s(wallLat)
	for _, c := range clients {
		res.attempted += c.calls
		res.failed += c.failed
		if c.firstBad != "" {
			res.check("client requests succeed and reads match the shadow copy", false, "%s", c.firstBad)
		}
	}
	if res.failed == 0 {
		res.check("client requests succeed and reads match the shadow copy", true, "%d requests", res.attempted)
	}
	served := len(wallLat)
	p99, q := tail(wallLat)
	res.note("serve_ops_per_s", float64(served)/wall, "ops/s", fmt.Sprintf("%d closed-loop clients", len(clients)))
	res.note("serve_p50_us", medianSorted(wallLat)*1e3, "us", fmt.Sprintf("n=%d, wall time", served))
	res.note("serve_p99_us", p99*1e3, "us", fmt.Sprintf("n=%d, at p%.4g, wall time", served, q*100))
}

// runServe is serve-mixed: one closed-loop client on one Salus engine.
// A second client on a 2-CPU host doubled the run-to-run spread of the
// per-call CPU time (NOTES.md), so the engine's shard locks are on the
// path here but uncontended.
func runServe(e *env) (*result, error) {
	const clients = 1
	res := newResult()
	res.busy = clients
	var (
		srv    *serve.Server
		eng    *securemem.Concurrent
		cs     []*client
		region = homePages * geometry.PageSize / clients
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the last repetition's garbage is not charged to this one
		cpu0 := cpuSeconds()
		var err error
		eng, err = securemem.NewConcurrent(securemem.Config{Geometry: geometry, Model: securemem.ModelSalus,
			TotalPages: homePages, DevicePages: deviceFrame})
		if err != nil {
			return nil, err
		}
		if srv, err = serve.New(serve.Config{Engine: eng}); err != nil {
			return nil, err
		}
		cs = cs[:0]
		rng := rand.New(rand.NewSource(e.seed))
		for k := 0; k < clients; k++ {
			base := securemem.HomeAddr(k * region)
			shadow, err := fill(eng.Write, base, region, rng)
			if err != nil {
				return nil, err
			}
			cs = append(cs, newClient(srv, base, shadow, e.seed*clients+int64(k)+1))
		}
		res.setup = append(res.setup, cpuSeconds()-cpu0)
	}

	for _, c := range cs {
		c.reserve(e.seconds)
	}
	before := memOpsOf(eng.Stats())
	e.begin()
	root := e.tr.open()
	start := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			id := e.tr.open()
			t0 := time.Now()
			c.loop(&stop, e.tr, id)
			e.tr.close(id, root, "client", fmt.Sprintf("%d", k), t0, time.Now())
		}(k, c)
	}
	time.Sleep(e.seconds)
	stop.Store(true)
	wg.Wait()
	e.tr.close(root, 0, "timed", "serve-mixed", start, time.Now())
	res.timed = e.end()

	var m memOps
	m.add(before, memOpsOf(eng.Stats()))
	noteServe(res, cs, res.timed.wall)
	res.work = float64(len(res.lat))
	for _, c := range cs {
		res.workSecs += c.cpu
	}
	serveLayers(res, srv, m)
	res.note("page_migrations_per_op", ratio(m.migrIn, m.ops), "1/op", "share of requests that migrate a page in")
	for _, c := range cs {
		err := c.verifyAll(eng)
		res.check(fmt.Sprintf("region at %d reads back equal to its shadow copy", c.base), err == nil, "%v", errOrOK(err))
	}
	return res, nil
}

func errOrOK(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}
