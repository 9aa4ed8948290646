// Package system assembles the full simulated machine — SMs, interconnect
// with mapping caches, per-partition L2 slices, device-memory channels,
// the CXL link, the page cache, and a security engine — and runs one
// workload to completion, producing the measurements the experiments
// report.
package system

import (
	"fmt"

	"github.com/salus-sim/salus/internal/cache"
	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/cxlmem"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/gpu"
	"github.com/salus-sim/salus/internal/memreq"
	"github.com/salus-sim/salus/internal/pagecache"
	"github.com/salus-sim/salus/internal/secsim"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/trace"
	"github.com/salus-sim/salus/internal/xbar"
)

// Model selects the security engine attached to the memory system.
type Model int

const (
	// ModelNone runs without security support (the normalisation baseline).
	ModelNone Model = iota
	// ModelBaseline runs the conventional location-coupled security model.
	ModelBaseline
	// ModelSalus runs the paper's unified relocation-friendly model.
	ModelSalus
)

// String returns the model name used in reports.
func (m Model) String() string {
	switch m {
	case ModelNone:
		return "none"
	case ModelBaseline:
		return "baseline"
	case ModelSalus:
		return "salus"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Options configure one simulation run.
type Options struct {
	Cfg      config.Config
	Workload trace.Params
	Model    Model

	// MaxAccesses caps the total memory accesses across all SMs (0 = run
	// the workload's full configured passes). The cap is distributed
	// evenly over SMs so every model sees identical streams.
	MaxAccesses int

	// CycleLimit aborts a run that exceeds this many cycles (0 = none); a
	// safety net for misconfigured experiments.
	CycleLimit uint64

	// Tune gives ablation studies access to the Salus engine's feature
	// toggles before the run starts. Ignored for other models.
	Tune func(*secsim.Salus)

	// TuneBaseline gives the Fig. 3 motivation experiment access to the
	// baseline engine's toggles before the run starts.
	TuneBaseline func(*secsim.Baseline)

	// Streams, when non-nil, replaces the synthetic per-SM streams with
	// caller-supplied access streams (e.g. replayed trace files). Workload
	// is still used for its name and footprint; MaxAccesses is ignored.
	Streams []gpu.Stream

	// PredictiveMigration switches the page cache from whole-page copies
	// to footprint-predicted partial fills (§IV-A3 notes the security
	// design works with either).
	PredictiveMigration bool
}

// Run simulates one workload under one security model.
func Run(opts Options) (*stats.Run, error) {
	cfg := opts.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Workload.Validate(); err != nil {
		return nil, err
	}

	geo := cfg.Geometry
	totalPages := int(opts.Workload.FootprintBytes) / geo.PageSize
	if totalPages < 1 {
		return nil, fmt.Errorf("system: footprint smaller than one page")
	}
	frames := int(float64(totalPages)*cfg.Memory.DeviceFootprintRatio + 0.5)
	if frames < 1 {
		frames = 1
	}
	if frames > totalPages {
		frames = totalPages
	}
	devBytes := uint64(frames) * uint64(geo.PageSize)
	totalBytes := uint64(totalPages) * uint64(geo.PageSize)

	eng := sim.NewEngine()
	run := &stats.Run{Workload: opts.Workload.Name, Model: opts.Model.String()}

	device := dram.New(eng, cfg.Memory.DeviceChannels, cfg.Memory.DeviceBytesPerCycle,
		cfg.Memory.DeviceLatency, uint64(geo.ChunkSize), &run.Traffic)
	bwNum, bwDen := cfg.Memory.CXLBytesPerCycleRational()
	cxl := cxlmem.New(eng, bwNum, bwDen, cfg.Memory.CXLLatency, &run.Traffic)

	ctx := &secsim.Ctx{Eng: eng, Cfg: cfg, Device: device, CXL: cxl, Ops: &run.Ops}
	var sec secsim.Engine
	switch opts.Model {
	case ModelNone:
		sec = secsim.NewNone()
	case ModelBaseline:
		b := secsim.NewBaseline(ctx, devBytes, totalBytes)
		if opts.TuneBaseline != nil {
			opts.TuneBaseline(b)
		}
		sec = b
	case ModelSalus:
		s := secsim.NewSalus(ctx, devBytes, totalBytes, frames)
		if opts.Tune != nil {
			opts.Tune(s)
		}
		sec = s
	default:
		return nil, fmt.Errorf("system: unknown model %d", opts.Model)
	}

	pc, err := pagecache.New(eng, geo, device, cxl, sec, &run.Ops, totalPages, frames)
	if err != nil {
		return nil, err
	}
	if opts.PredictiveMigration {
		pc.SetMode(pagecache.Predictive)
	}
	xb := xbar.New(eng, cfg, device, pc, &run.Ops)
	pc.SetEvictNotifier(func(homePage int) { xb.Invalidate(homePage) })

	// Per-partition L2 slices, sectored like the hardware's.
	mp := &l2Path{eng: eng, geo: geo, device: device, sec: sec,
		latency: sim.Cycle(cfg.GPU.L2Latency)}
	for i := 0; i < cfg.Memory.DeviceChannels; i++ {
		mp.slices = append(mp.slices, cache.New(cache.Config{
			SizeBytes:  cfg.GPU.L2KBPerPartition * 1024,
			BlockSize:  geo.BlockSize,
			SectorSize: geo.SectorSize,
			Ways:       cfg.GPU.L2Ways,
			MSHRs:      cfg.GPU.L2MSHRs,
		}))
	}
	mp.accessFn = mp.access
	issuer := func(r *memreq.Request) {
		r.Push(mp.accessFn)
		xb.Request(r)
	}

	// Build one stream per SM (or use the caller-supplied replay streams).
	streams := opts.Streams
	if streams == nil {
		perSM := 0
		if opts.MaxAccesses > 0 {
			perSM = (opts.MaxAccesses + cfg.GPU.NumSMs - 1) / cfg.GPU.NumSMs
		}
		tgeo := trace.Geometry{SectorSize: geo.SectorSize, ChunkSize: geo.ChunkSize, PageSize: geo.PageSize}
		for i := 0; i < cfg.GPU.NumSMs; i++ {
			st, err := opts.Workload.NewStream(tgeo, i, cfg.GPU.NumSMs, perSM)
			if err != nil {
				return nil, err
			}
			streams = append(streams, st)
		}
	}

	g := gpu.New(eng, cfg.GPU, streams, issuer)
	g.Start(func() {})
	eng.RunUntil(sim.Cycle(opts.CycleLimit), func() bool { return !g.Done() })
	if !g.Done() {
		return nil, fmt.Errorf("system: %s/%s exceeded the cycle limit %d", run.Workload, run.Model, opts.CycleLimit)
	}

	run.Cycles = uint64(g.FinishCycle())
	run.Instructions = g.Instructions()
	run.MemRequests = g.MemRequests()
	run.DeviceBusyCycles = device.BusyCycles()
	run.CXLBusyCycles = cxl.BusyCycles()
	if reporter, ok := sec.(interface{ CacheHitRates() map[string]float64 }); ok {
		run.CacheHitRates = reporter.CacheHitRates()
	}
	return run, nil
}

// l2Path is the post-interconnect memory path of one run: the L2 slice
// of the request's partition, then on a read miss the data read and the
// security read path in parallel.
type l2Path struct {
	eng     *sim.Engine
	geo     config.Geometry
	device  *dram.Memory
	sec     secsim.Engine
	slices  []*cache.Cache // per device channel
	latency sim.Cycle      // L2 hit latency

	fills    sim.Pool[l2Fill]
	accessFn memreq.Cont // continuation, bound once
}

// l2Fill is one L2 miss in flight: the block fills when both the data
// read and the security read path have completed.
type l2Fill struct {
	p         *l2Path
	ch        int
	block     cache.Addr
	homeBlock uint64
	pending   int
}

func (f *l2Fill) Fire() {
	f.pending--
	if f.pending == 0 {
		p, ch, block, homeBlock := f.p, f.ch, f.block, f.homeBlock
		p.fills.Put(f)
		p.handleVictim(p.slices[ch].CompleteMSHR(block, homeBlock))
	}
}

// access runs the L2 for a request the interconnect delivered, and fires
// the request when its data is available (loads) or installed (stores).
func (p *l2Path) access(r *memreq.Request) {
	chunks := uint64(p.geo.ChunkSize)
	ch := int((uint64(r.Dev) / chunks) % uint64(len(p.slices)))
	l2 := p.slices[ch]
	block := l2.BlockAddr(cache.Addr(r.Dev))
	homeBlock := uint64(r.Home) - uint64(r.Home)%uint64(p.geo.BlockSize)
	secMask := cache.SectorMask(1) << uint(l2.SectorIndex(cache.Addr(r.Dev)))

	if r.Write {
		// Write-validate: install the sector dirty without fetching.
		res := l2.Lookup(block, secMask)
		if res.Miss != 0 {
			p.handleVictim(l2.Fill(block, secMask, homeBlock))
		}
		l2.MarkDirty(block, secMask)
		p.eng.Schedule(p.eng.Now()+p.latency, r)
		return
	}

	res := l2.Lookup(block, secMask)
	if res.Miss == 0 {
		p.eng.Schedule(p.eng.Now()+p.latency, r)
		return
	}
	switch l2.AllocateMSHR(block, secMask, r) {
	case cache.MSHRNew:
		// The data read and the security read path run in parallel;
		// the fill completes when both have.
		f := p.fills.Get()
		f.p, f.ch, f.block, f.homeBlock, f.pending = p, ch, block, homeBlock, 2
		p.device.Access(uint64(r.Dev), uint64(p.geo.SectorSize), stats.Data, f)
		p.sec.OnRead(r.Home, r.Dev, f)
	case cache.MSHRMerged:
		// r fires with the in-flight fill.
	case cache.MSHRFull:
		r.Push(p.accessFn)
		p.eng.Schedule(p.eng.Now()+8, r)
	}
}

// handleVictim writes back a dirty L2 victim: the data write plus the
// security write path for each dirty sector.
func (p *l2Path) handleVictim(v cache.Victim, evicted bool) {
	if !evicted || v.Dirty == 0 {
		return
	}
	for i := 0; i < p.geo.SectorsPerBlock(); i++ {
		if !v.Dirty.Has(i) {
			continue
		}
		devAddr := securemem.DevAddr(uint64(v.BlockAddr) + uint64(i*p.geo.SectorSize))
		homeAddr := securemem.HomeAddr(v.Extra + uint64(i*p.geo.SectorSize))
		p.device.Access(uint64(devAddr), uint64(p.geo.SectorSize), stats.Data, nil)
		p.sec.OnWrite(homeAddr, devAddr, nil)
	}
}
