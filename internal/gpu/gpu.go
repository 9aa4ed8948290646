// Package gpu models the compute side of the simulated system: streaming
// multiprocessors that turn workload streams into timed memory requests.
//
// Each SM owns one instruction issue pipe (a bandwidth server retiring
// NonMemIPC instructions per cycle) shared by its warp lanes. A lane
// repeatedly retires its compute batch, then issues the next memory
// access. Loads block the lane until the reply returns; stores are posted
// but hold an outstanding-request slot so a store-heavy lane cannot run
// unboundedly ahead of the memory system. Instructions retired and the
// finish cycle give the IPC the experiments report.
package gpu

import (
	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/memreq"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/trace"
)

// Issuer sends one memory access into the memory system. It must fire r
// (directly or through the engine) exactly once, at completion time;
// r's top continuation is the lane's completion.
type Issuer func(r *memreq.Request)

// Stream is the access source an SM executes: either a synthetic
// generator (*trace.Stream) or a replayed file (*trace.FileStream).
type Stream interface {
	Next() (trace.Access, bool)
	ComputePerMem() int
}

// GPU is the collection of SMs executing one workload.
type GPU struct {
	eng    *sim.Engine
	cfg    config.GPU
	issuer Issuer

	sms      []*sm
	active   int // SMs still executing
	instrs   uint64
	memReqs  uint64
	finish   sim.Cycle
	onFinish func()
	started  bool
	reqs     sim.Pool[memreq.Request]
}

type sm struct {
	g           *GPU
	id, gpc     int
	issue       *sim.Server
	stream      Stream
	computeCost uint64

	lanes       int // live lanes
	outstanding int
	slotWaiters memreq.Queue // issued accesses awaiting a slot
	exhausted   bool

	issuedFn, doneFn memreq.Cont // continuations, bound once
}

// New builds a GPU whose SM i executes streams[i]. The issuer delivers
// memory accesses to the memory system.
func New(eng *sim.Engine, cfg config.GPU, streams []Stream, issuer Issuer) *GPU {
	g := &GPU{eng: eng, cfg: cfg, issuer: issuer}
	for i, st := range streams {
		s := &sm{
			g:           g,
			id:          i,
			gpc:         i / cfg.SMsPerGPC,
			issue:       sim.NewServer(eng, 1, uint64(cfg.NonMemIPC), 0),
			stream:      st,
			computeCost: uint64(st.ComputePerMem() + 1),
		}
		s.issuedFn, s.doneFn = s.issued, s.memDone
		g.sms = append(g.sms, s)
	}
	return g
}

// Start launches every SM at the current simulation time. onFinish runs
// once when the last SM drains. Start may be called once.
func (g *GPU) Start(onFinish func()) {
	if g.started {
		panic("gpu: Start called twice")
	}
	g.started = true
	g.onFinish = onFinish
	g.active = len(g.sms)
	if g.active == 0 {
		g.finish = g.eng.Now()
		if onFinish != nil {
			onFinish()
		}
		return
	}
	for _, s := range g.sms {
		s.lanes = g.cfg.WarpsPerSM
		for l := 0; l < g.cfg.WarpsPerSM; l++ {
			s.laneStep()
		}
	}
}

// Instructions returns the instructions retired so far.
func (g *GPU) Instructions() uint64 { return g.instrs }

// MemRequests returns the memory accesses issued so far.
func (g *GPU) MemRequests() uint64 { return g.memReqs }

// FinishCycle returns the cycle at which the last SM drained (valid after
// onFinish has run).
func (g *GPU) FinishCycle() sim.Cycle { return g.finish }

// Done reports whether all SMs have drained.
func (g *GPU) Done() bool { return g.started && g.active == 0 }

// laneStep advances one warp lane: retire the compute batch plus the
// memory instruction through the issue pipe, then perform the access.
func (s *sm) laneStep() {
	acc, ok := s.stream.Next()
	if !ok {
		s.laneDone()
		return
	}
	r := s.g.reqs.Get()
	r.Home, r.Write, r.GPC = securemem.HomeAddr(acc.Addr), acc.Write, s.gpc
	r.Push(s.issuedFn)
	s.issue.Submit(s.computeCost, r)
}

// issued runs when the issue pipe retired the lane's batch.
func (s *sm) issued(r *memreq.Request) {
	s.g.instrs += s.computeCost
	if s.outstanding < s.g.cfg.MaxOutstanding {
		s.outstanding++
		s.startMem(r)
		return
	}
	s.slotWaiters.Push(r)
}

// startMem sends an access that holds an outstanding-request slot.
func (s *sm) startMem(r *memreq.Request) {
	s.g.memReqs++
	write := r.Write
	r.Push(s.doneFn)
	s.g.issuer(r)
	if write {
		// Posted store: the lane proceeds without waiting.
		s.laneStep()
	}
}

// memDone runs when the memory system completed an access.
func (s *sm) memDone(r *memreq.Request) {
	write := r.Write
	s.g.reqs.Put(r)
	s.releaseSlot()
	if !write {
		s.laneStep()
	}
}

func (s *sm) releaseSlot() {
	if r := s.slotWaiters.Pop(); r != nil {
		s.startMem(r)
		return
	}
	s.outstanding--
	s.maybeFinish()
}

func (s *sm) laneDone() {
	s.lanes--
	s.exhausted = s.lanes == 0
	s.maybeFinish()
}

func (s *sm) maybeFinish() {
	if !s.exhausted || s.outstanding != 0 || s.lanes != 0 {
		return
	}
	s.exhausted = false // fire once
	s.g.active--
	if s.g.active == 0 {
		s.g.finish = s.g.eng.Now()
		if s.g.onFinish != nil {
			s.g.onFinish()
		}
	}
}
