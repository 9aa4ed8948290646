package gpu

import (
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/memreq"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/trace"
)

func testGPUCfg() config.GPU {
	return config.GPU{
		NumSMs: 2, SMsPerGPC: 2, WarpsPerSM: 2, MaxOutstanding: 4, NonMemIPC: 1,
	}
}

func makeStreams(t *testing.T, cfg config.GPU, accessesPerSM int, writeFrac float64) []Stream {
	t.Helper()
	p := trace.Params{
		Name: "t", FootprintBytes: 16 * 4096, PageCoverage: 1.0, Rereference: 1,
		WriteFraction: writeFrac, ComputePerMem: 3, Pattern: trace.Sequential, Passes: 4, Seed: 3,
	}
	geo := trace.Geometry{SectorSize: 32, ChunkSize: 256, PageSize: 4096}
	var out []Stream
	for i := 0; i < cfg.NumSMs; i++ {
		st, err := p.NewStream(geo, i, cfg.NumSMs, accessesPerSM)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// immediateIssuer completes every access after a fixed delay.
func immediateIssuer(eng *sim.Engine, delay sim.Cycle) (Issuer, *int) {
	count := 0
	return func(r *memreq.Request) {
		count++
		eng.Schedule(eng.Now()+delay, r)
	}, &count
}

func TestGPURunsToCompletion(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testGPUCfg()
	streams := makeStreams(t, cfg, 50, 0.3)
	issuer, issued := immediateIssuer(eng, 10)
	g := New(eng, cfg, streams, issuer)
	finished := false
	g.Start(func() { finished = true })
	eng.Run(0)
	if !finished || !g.Done() {
		t.Fatal("GPU never finished")
	}
	if *issued != 100 {
		t.Errorf("issued %d accesses, want 100", *issued)
	}
	if g.MemRequests() != 100 {
		t.Errorf("MemRequests = %d, want 100", g.MemRequests())
	}
	// Each access retires computePerMem+1 = 4 instructions.
	if g.Instructions() != 400 {
		t.Errorf("Instructions = %d, want 400", g.Instructions())
	}
	if g.FinishCycle() == 0 {
		t.Error("finish cycle zero")
	}
}

func TestIssueBandwidthBoundsIPC(t *testing.T) {
	// With instant memory, runtime is bounded below by instructions /
	// (SMs × NonMemIPC).
	eng := sim.NewEngine()
	cfg := testGPUCfg()
	streams := makeStreams(t, cfg, 100, 0)
	issuer, _ := immediateIssuer(eng, 0)
	g := New(eng, cfg, streams, issuer)
	g.Start(nil)
	eng.Run(0)
	minCycles := g.Instructions() / uint64(cfg.NumSMs*cfg.NonMemIPC)
	if uint64(g.FinishCycle()) < minCycles {
		t.Errorf("finished in %d cycles, below issue bound %d", g.FinishCycle(), minCycles)
	}
	ipc := float64(g.Instructions()) / float64(g.FinishCycle())
	if ipc > float64(cfg.NumSMs*cfg.NonMemIPC)+0.01 {
		t.Errorf("IPC %f exceeds issue bandwidth %d", ipc, cfg.NumSMs*cfg.NonMemIPC)
	}
}

func TestMemoryLatencyStallsLanes(t *testing.T) {
	// Same work with slower memory must take longer.
	run := func(delay sim.Cycle) sim.Cycle {
		eng := sim.NewEngine()
		cfg := testGPUCfg()
		streams := makeStreams(t, cfg, 50, 0) // all reads: lanes block
		issuer, _ := immediateIssuer(eng, delay)
		g := New(eng, cfg, streams, issuer)
		g.Start(nil)
		eng.Run(0)
		return g.FinishCycle()
	}
	fast, slow := run(1), run(500)
	if slow <= fast {
		t.Errorf("slow memory (%d) not slower than fast (%d)", slow, fast)
	}
}

func TestMaxOutstandingRespected(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testGPUCfg()
	cfg.MaxOutstanding = 2
	cfg.WarpsPerSM = 8                      // more lanes than slots
	streams := makeStreams(t, cfg, 40, 1.0) // all writes: posted, slot-bound
	inFlight, maxInFlight := 0, 0
	issuer := func(r *memreq.Request) {
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		eng.After(20, func() {
			inFlight--
			r.Fire()
		})
	}
	g := New(eng, cfg, streams, issuer)
	g.Start(nil)
	eng.Run(0)
	if !g.Done() {
		t.Fatal("did not finish")
	}
	// Per SM at most 2 outstanding, 2 SMs -> at most 4 in flight.
	if maxInFlight > 4 {
		t.Errorf("max in flight = %d, want <= 4", maxInFlight)
	}
}

func TestGPCAssignment(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testGPUCfg()
	cfg.NumSMs = 4
	cfg.SMsPerGPC = 2
	streams := makeStreams(t, cfg, 10, 0)
	gpcs := map[int]bool{}
	issuer := func(r *memreq.Request) {
		gpcs[r.GPC] = true
		eng.Schedule(eng.Now()+1, r)
	}
	g := New(eng, cfg, streams, issuer)
	g.Start(nil)
	eng.Run(0)
	if len(gpcs) != 2 || !gpcs[0] || !gpcs[1] {
		t.Errorf("GPCs seen = %v, want {0,1}", gpcs)
	}
}

func TestEmptyGPU(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, testGPUCfg(), nil, func(*memreq.Request) {})
	fired := false
	g.Start(func() { fired = true })
	if !fired || !g.Done() {
		t.Error("empty GPU did not finish immediately")
	}
}

func TestStartTwicePanics(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, testGPUCfg(), nil, func(*memreq.Request) {})
	g.Start(nil)
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	g.Start(nil)
}

func TestIssuerSeesStreamAccesses(t *testing.T) {
	// Every request carries its access's home address and write flag,
	// exactly as the stream produced them.
	cfg := testGPUCfg()
	var want []trace.Access
	for _, st := range makeStreams(t, cfg, 30, 0.5) {
		for {
			a, ok := st.Next()
			if !ok {
				break
			}
			want = append(want, a)
		}
	}
	eng := sim.NewEngine()
	seen := map[trace.Access]int{}
	issuer := func(r *memreq.Request) {
		seen[trace.Access{Addr: uint64(r.Home), Write: r.Write}]++
		eng.Schedule(eng.Now()+5, r)
	}
	g := New(eng, cfg, makeStreams(t, cfg, 30, 0.5), issuer)
	g.Start(nil)
	eng.Run(0)
	for _, a := range want {
		seen[a]--
	}
	for a, n := range seen {
		if n != 0 {
			t.Errorf("access %+v issued %d times more than streamed", a, n)
		}
	}
}
