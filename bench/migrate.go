package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/salus-sim/salus/internal/migrate"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
	"github.com/salus-sim/salus/internal/tenant"
)

const migrant = "migrant"

// masterMAC is shared by every pool, so each destination derives the
// migrant's keys and its journal verifies without re-encryption.
var masterMAC = bytes.Repeat([]byte{0x5a}, 32)

func newPool() (*tenant.Pool, *tenant.Tenant, error) {
	p, err := tenant.NewPool(tenant.Config{
		Geometry: geometry,
		MACKey:   masterMAC,
		Slices:   []tenant.Slice{{ID: migrant, BasePage: 0, Pages: homePages, Frames: deviceFrame}},
	})
	if err != nil {
		return nil, nil, err
	}
	t, err := p.Tenant(migrant)
	return p, t, err
}

func nonce(seed int64, i int) [32]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	return sha256.Sum256(append([]byte("bench migrate-live "), b[:]...))
}

// runMigrate is migrate-live: one client keeps serving an 8 MiB tenant
// through serve while the tenant migrates, again and again, to a fresh
// pool built from the same masters.
//
// The cutover runs inside serve.Server.WithQuiescedSwap, the Server
// itself being the migration's Swapper. A timing wrapper around it would
// pull the wall clock into the migration package's deterministic core,
// which the simclock analyzer rejects. So the blackout is measured where
// the tenant sees it: the closed-loop client always has a request in
// flight or about to be, and the one that meets the quiesced service
// waits out the whole cutover. Each migration's blackout is the longest
// Do latency from its start to the next migration's start.
//
// The migration runs on this goroutine, pinned to its OS thread, and
// throughput_per_s divides the pages moved by that thread's CPU time
// from handshake through cutover (threadCPUNanos says why). The
// migrate.* shares and the named metrics stay on wall time.
func runMigrate(e *env) (*result, error) {
	res := newResult()
	res.busy = 2
	var (
		pool *tenant.Pool
		src  *tenant.Tenant
		srv  *serve.Server
		cl   *client
	)
	tenantBytes := homePages * geometry.PageSize
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the last repetition's garbage is not charged to this one
		cpu0 := cpuSeconds()
		var err error
		if pool, src, err = newPool(); err != nil {
			return nil, err
		}
		write := func(a securemem.HomeAddr, b []byte) error { return src.Write(src.Base()+a, b) }
		shadow, err := fill(write, 0, tenantBytes, rand.New(rand.NewSource(e.seed)))
		if err != nil {
			return nil, err
		}
		if srv, err = serve.New(serve.Config{Engine: src.Engine()}); err != nil {
			return nil, err
		}
		cl = newClient(srv, 0, shadow, e.seed+1)
		res.setup = append(res.setup, cpuSeconds()-cpu0)
	}

	cl.reserve(e.seconds)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	base := memOpsOf(src.Engine().Stats())
	var served memOps
	e.begin()
	root := e.tr.open()
	start := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := e.tr.open()
		t0 := time.Now()
		cl.loop(&stop, e.tr, id)
		e.tr.close(id, root, "client", "0", t0, time.Now())
	}()

	var (
		wall, startSecs, cutSecs []float64
		cpuSecs                  float64
		rounds, chunks, streamed float64
		rejected                 uint64
		migrations, failed       int
		firstErr                 error
	)
	for time.Since(start) < e.seconds {
		dst, dstT, err := newPool()
		if err != nil {
			firstErr = err
			break
		}
		if blackout := cl.takeMaxLatency(); migrations > 0 {
			cutSecs = append(cutSecs, blackout)
		}
		id := e.tr.open()
		t0, cpu0 := time.Now(), threadCPUNanos()
		sess, err := migrate.Start(migrate.Config{SourcePool: pool, Source: src, DestPool: dst, Nonce: nonce(e.seed, migrations), Swap: srv})
		t1 := time.Now()
		e.tr.close(e.tr.open(), id, "migrate.Start", "", t0, t1)
		if err == nil {
			err = sess.Run()
		}
		cpu2, t2 := threadCPUNanos(), time.Now()
		e.tr.close(e.tr.open(), id, "migrate.Session.Run", "", t1, t2)
		e.tr.close(id, root, "migration", fmt.Sprintf("%d", migrations), t0, t2)
		migrations++
		if err == nil && srv.Engine() != dstT.Engine() {
			err = fmt.Errorf("cutover left the service on the source engine")
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		ops := sess.Ops()
		rejected += ops.Torn + ops.Replay + ops.Attest + ops.Fresh
		rounds += float64(ops.Rounds)
		chunks += float64(ops.ChunksSent)
		streamed += float64(ops.BytesStreamed)
		wall = append(wall, t2.Sub(t0).Seconds())
		cpuSecs += float64(cpu2-cpu0) / 1e9
		startSecs = append(startSecs, t1.Sub(t0).Seconds())
		// The source engine served until the cutover; the destination
		// serves from here on.
		served.add(base, memOpsOf(src.Engine().Stats()))
		base = memOpsOf(dstT.Engine().Stats())
		pool, src = dst, dstT
	}
	stop.Store(true)
	wg.Wait()
	if len(wall) > 0 {
		cutSecs = append(cutSecs, cl.takeMaxLatency())
	}
	e.tr.close(root, 0, "timed", "migrate-live", start, time.Now())
	res.timed = e.end()

	noteServe(res, []*client{cl}, res.timed.wall)
	res.attempted += migrations
	res.failed += failed
	res.check("every migration completes and cuts the service over", firstErr == nil, "%d migrations: %v", migrations, errOrOK(firstErr))
	res.check("no stream record is rejected", rejected == 0, "%d rejected", rejected)
	served.add(base, memOpsOf(srv.Engine().Stats()))
	serveLayers(res, srv, served)
	if err := cl.verifyAll(srv.Engine()); err != nil {
		res.check("destination reads back equal to the client's shadow copy", false, "%v", err)
	} else {
		res.check("destination reads back equal to the client's shadow copy", true, "%d bytes after %d migrations", tenantBytes, migrations)
	}
	if len(wall) == 0 {
		return res, nil
	}

	var total, starts, cuts float64
	for i := range wall {
		total += wall[i]
		starts += startSecs[i]
		cuts += cutSecs[i]
	}
	n := float64(len(wall))
	moved := n * float64(tenantBytes)
	res.work, res.workSecs = n*homePages, cpuSecs
	res.layer["migrate.mb_per_s"] = moved / total / 1e6
	res.layer["migrate.start_share"] = starts / total
	res.layer["migrate.cutover_share"] = cuts / total
	res.layer["migrate.sync_share"] = (total - starts - cuts) / total
	res.layer["migrate.rounds"] = rounds / n
	res.layer["migrate.chunks_sent"] = chunks / n
	res.layer["migrate.stream_amplification"] = streamed / moved
	res.layer["migrate.rejected_records"] = float64(rejected)
	res.note("migrate_mb_per_s", moved/total/1e6, "MB/s", fmt.Sprintf("%d migrations of %d B, handshake through cutover", len(wall), tenantBytes))
	res.note("cutover_ms", median(cutSecs)*1e3, "ms", "median blackout: the client's longest Do latency per migration")
	return res, nil
}
