package check

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/oracle"
	"github.com/salus-sim/salus/internal/securemem"
)

// Link-chaos mode: the harness replays a generated Salus workload while a
// deterministic link plan flaps the CXL transport — scripted windows,
// rate-driven episodes, and brownout latency — and asserts the
// degraded-mode contract op by op:
//
//   - every in-range operation either succeeds or fails with a typed link
//     error (ErrLinkDown, ErrDegraded, ErrQueueFull) — never an untyped
//     error, never a retry/backoff spin charged to the transient fault
//     budget, never a panic;
//   - every successful read returns the oracle's bytes, where a byte a
//     link-failed write may have half-applied must read back as its old
//     or its new value;
//   - after the final recovery — link forced up, writeback queue drained,
//     everything flushed — the home tier is byte-identical to a no-outage
//     golden run of the same successful writes, and the queue accounting
//     closes: every writeback ever queued has drained;
//   - per seed, a rollback of home state staged during an outage window
//     is detected as ErrFreshness when the queue drains — the outage is
//     never an integrity holiday.
//
// A violation shrinks to a minimal sequence under the link plan that
// exposed it and renders as a regression test, like any other checker
// failure.

// NamedLinkPlan pairs a link.ParsePlan spec with a campaign-stable name
// used in failure reports and reproducers.
type NamedLinkPlan struct {
	Name string
	Spec string
}

// LinkPlan sizes a link-chaos campaign. Every seed replays once per entry
// in Plans; rate plans are reseeded per sequence so shrunk reproducers
// replay the same flap schedule.
type LinkPlan struct {
	SeedRange
	Ops int // operations per generated sequence
	Space

	// QueueCap bounds the dirty-writeback queue; <= 0 selects
	// securemem.DefaultWritebackQueueCap. The default campaign keeps it
	// tiny so ErrQueueFull backpressure is exercised, not just possible.
	QueueCap int

	// Plans are the link schedules each seed replays under.
	Plans []NamedLinkPlan
}

// DefaultLinkPlan returns the smoke-budget link campaign used by
// `make link-smoke`: 12 seeds × 120 ops over an 8-page home space and 2
// device frames with a 2-deep writeback queue, each seed replayed under a
// short-flap script, a long-outage script, a brownout script, and a
// rate-driven plan. Window ordinals are home-transfer counts: one miss
// fill consumes ChunksPerPage ordinals, so the windows below land inside
// the first few dozen operations of every sequence.
func DefaultLinkPlan() LinkPlan {
	return LinkPlan{
		SeedRange: SeedRange{Seeds: 12, FirstSeed: 1},
		Ops:       120,
		Space: Space{
			TotalPages:  8,
			DevicePages: 2,
			Geometry:    config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096},
		},
		QueueCap: 2,
		Plans: []NamedLinkPlan{
			{Name: "flap-short", Spec: "down@40..70,down@300..340,down@800..860"},
			{Name: "flap-long", Spec: "down@100..500"},
			{Name: "brownout", Spec: "deg@50..600:24,down@700..760"},
			{Name: "rate", Spec: "rate:seed=1,flap=0.02,downlen=24,deg=0.02,deglen=16,lat=12"},
		},
	}
}

// LinkResult summarises a link-chaos campaign, or one seed of it.
type LinkResult struct {
	Verdict
	PlansRun int // seed × plan replays completed
	OpsRun   int

	OpsOK      uint64 // in-range ops that succeeded
	OpsRefused uint64 // in-range ops that failed with a typed link error

	Flaps     uint64 // link state transitions observed
	Refusals  uint64 // transfers refused by a down link
	FastFails uint64 // transfers fast-failed by the open breaker
	Queued    uint64 // writebacks parked on the queue
	Drained   uint64 // writebacks drained back to the home tier
	Dropped   uint64 // evictions refused by a full queue
	QueuePeak uint64 // campaign-wide queue high-water mark

	DepthSum     uint64 // queue depth summed over post-op samples
	DepthSamples uint64
	AgeSum       uint64 // ops spent parked, summed over drained writebacks
	AgeCount     uint64

	RollbackProbes int // per-seed outage-rollback probes that detected
}

func (r *LinkResult) progress() string {
	return fmt.Sprintf("%d plans, %d ops (%d refused typed, %d queued, %d drained)",
		r.PlansRun, r.OpsRun, r.OpsRefused, r.Queued, r.Drained)
}

func (r *LinkResult) add(o *LinkResult) {
	r.PlansRun += o.PlansRun
	r.OpsRun += o.OpsRun
	r.OpsOK += o.OpsOK
	r.OpsRefused += o.OpsRefused
	r.Flaps += o.Flaps
	r.Refusals += o.Refusals
	r.FastFails += o.FastFails
	r.Queued += o.Queued
	r.Drained += o.Drained
	r.Dropped += o.Dropped
	r.QueuePeak = max(r.QueuePeak, o.QueuePeak)
	r.DepthSum += o.DepthSum
	r.DepthSamples += o.DepthSamples
	r.AgeSum += o.AgeSum
	r.AgeCount += o.AgeCount
	r.RollbackProbes += o.RollbackProbes
}

func (p LinkPlan) seedRange() SeedRange { return p.SeedRange }

// runSeed replays the seed's sequence under every named link plan, then
// runs the outage-rollback probe.
func (p LinkPlan) runSeed(seed int64) LinkResult {
	var r LinkResult
	seq := GenerateLinkSequence(p, seed)
	for _, np := range p.Plans {
		r.OpsRun += len(seq.Ops)
		if r.Failure = p.replay(np, seq, &r); r.Failure != nil {
			return r
		}
		r.PlansRun++
	}
	if r.Failure = linkRollbackProbe(p, seed); r.Failure == nil {
		r.RollbackProbes++
	}
	return r
}

// Replay replays one sequence under every named link plan in turn,
// returning the first contract violation or nil.
func (p LinkPlan) Replay(seq Sequence) *Failure {
	var scratch LinkResult
	for _, np := range p.Plans {
		if f := p.replay(np, seq, &scratch); f != nil {
			return f
		}
	}
	return nil
}

func (p LinkPlan) goSetup(b *strings.Builder) (string, string) {
	b.WriteString("\tplan := check.DefaultLinkPlan()\n")
	fmt.Fprintf(b, "\tplan.TotalPages = %d\n\tplan.DevicePages = %d\n\tplan.QueueCap = %d\n",
		p.TotalPages, p.DevicePages, p.QueueCap)
	b.WriteString("\tplan.Plans = []check.NamedLinkPlan{\n")
	for _, np := range p.Plans {
		fmt.Fprintf(b, "\t\t{Name: %q, Spec: %q},\n", np.Name, np.Spec)
	}
	b.WriteString("\t}\n")
	return "Link", "plan"
}

// GenerateLinkSequence produces the deterministic link-mode workload for
// one seed: the plain generator's address/length skew over an in-range
// Salus op set, heavy on writes and flushes (parking pressure) with
// periodic drains so recovery interleaves with the outage schedule.
// Hostile probes are omitted — bounds behaviour is the plain checker's
// job; link mode wants maximal home-tier traffic.
func GenerateLinkSequence(plan LinkPlan, seed int64) Sequence {
	g := gen{rng: rand.New(rand.NewSource(seed)), s: plan.Space}
	mix := opMix{
		{30, OpWrite},            // cached write: dirties device chunks, arms parking
		{52, OpRead},             // cached read: migration churn across the link
		{66, OpWriteThrough},     // direct CXL write
		{76, OpReadThrough},      // direct CXL read
		{84, OpCheckpoint},       // chunk checkpoint: collapse traffic over the link
		{94, OpFlush},            // flush: mass eviction, the main parking source
		{100, OpDrainWritebacks}, // reconciler drain, possibly mid-outage
	}
	ops := make([]Op, 0, plan.Ops)
	var tag byte
	for i := 0; i < plan.Ops; i++ {
		ops = append(ops, g.op(mix, &tag))
	}
	return Sequence{Seed: seed, Ops: ops}
}

// linkErr reports whether err is (or wraps) one of the typed link-
// degradation sentinels an outage is allowed to surface.
func linkErr(err error) bool {
	return errors.Is(err, securemem.ErrLinkDown) ||
		errors.Is(err, securemem.ErrDegraded) ||
		errors.Is(err, securemem.ErrQueueFull)
}

// newSeqLink builds the link for one (sequence, plan) replay. Rate plans
// are reseeded with the sequence seed so the flap schedule is a pure
// function of (seed, spec) — which is what makes shrunk reproducers and
// re-replays deterministic.
func newSeqLink(np NamedLinkPlan, seed int64) (*link.Link, error) {
	p, err := link.ParsePlan(np.Spec)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %v", np.Name, err)
	}
	if rp, ok := p.(*link.RatePlan); ok {
		rp.Reseed(seed)
	}
	return link.New(p, link.DefaultConfig()), nil
}

// replay replays one sequence under one named link plan, accumulating
// campaign counters into res. The oracle tracks the plaintext a no-outage
// system would hold after the same successful writes; bytes a link-failed
// write may have half-applied are ambiguous between their old and new
// values until observed or overwritten. A failure replays under p
// narrowed to np.
func (p LinkPlan) replay(np NamedLinkPlan, seq Sequence, res *LinkResult) *Failure {
	plan := p
	plan.Plans = []NamedLinkPlan{np}
	target := "salus-link/" + np.Name
	fail := func(idx int, format string, a ...any) *Failure {
		return &Failure{Seq: seq, OpIdx: idx, Target: target, Reason: fmt.Sprintf(format, a...), Replayer: plan}
	}

	sys, err := securemem.New(plan.memConfig())
	if err != nil {
		return fail(-1, "target setup: %v", err)
	}
	lnk, err := newSeqLink(np, seq.Seed)
	if err != nil {
		return fail(-1, "target setup: %v", err)
	}
	sys.AttachLink(lnk, nil, plan.QueueCap)

	size := plan.size()
	want := oracle.New(int(size))
	t := &systemTarget{model: securemem.ModelSalus, sys: sys}

	// enqueueIdx records, FIFO, the op index at which each parked
	// writeback was queued; drains pop it to measure queue age in ops.
	// The queue drains strictly FIFO, so pairing deltas is exact.
	var enqueueIdx []int
	prev := sys.Stats()
	account := func(idx int) {
		cur := sys.Stats()
		for n := prev.WritebacksQueued; n < cur.WritebacksQueued; n++ {
			enqueueIdx = append(enqueueIdx, idx)
		}
		for n := prev.WritebacksDrained; n < cur.WritebacksDrained; n++ {
			res.AgeSum += uint64(idx - enqueueIdx[0])
			res.AgeCount++
			enqueueIdx = enqueueIdx[1:]
		}
		prev = cur
		res.DepthSum += uint64(sys.QueuedWritebacks())
		res.DepthSamples++
	}

	for i, op := range seq.Ops {
		if op.Kind != OpFlush && op.Kind != OpDrainWritebacks {
			if op.Addr >= size || uint64(op.Len) > size-op.Addr {
				return fail(i, "link sequences must stay in range (addr %#x len %d, size %#x)", op.Addr, op.Len, size)
			}
		}
		var buf []byte
		var err error
		switch op.Kind {
		case OpRead, OpReadThrough:
			buf = make([]byte, op.Len)
			err = safely(func() error { return access(t, op, buf) })
		case OpWrite, OpWriteThrough:
			data := FillData(op.Tag, op.Len)
			err = safely(func() error { return access(t, op, data) })
			if err == nil {
				want.Write(int(op.Addr), data)
			} else {
				// The write may have landed partially before the link
				// refused.
				want.Ambiguous(int(op.Addr), data)
			}
		case OpCheckpoint:
			err = safely(func() error { return sys.CheckpointChunk(securemem.HomeAddr(op.Addr)) })
		case OpFlush:
			err = safely(sys.Flush)
		case OpDrainWritebacks:
			err = safely(func() error { _, derr := sys.DrainWritebacks(); return derr })
		default:
			return fail(i, "op kind %v not supported in link replay", op.Kind)
		}

		if pe, ok := err.(*panicError); ok {
			return fail(i, "%v", pe)
		}
		if err != nil {
			if !linkErr(err) {
				return fail(i, "in-range operation failed with a non-link error: %v", err)
			}
			res.OpsRefused++
		} else {
			res.OpsOK++
			if op.Kind == OpRead || op.Kind == OpReadThrough {
				if d := want.Observe(int(op.Addr), buf); d != nil {
					return fail(i, "read at %#x diverged from oracle: %v", op.Addr, d)
				}
			}
		}
		account(i)
	}

	// --- Recovery: force the link up, drain, flush. From here on every
	// operation must succeed — the outage is over. ---
	lnk.ForceUp()
	if _, err := sys.DrainWritebacks(); err != nil {
		return fail(len(seq.Ops), "post-recovery drain failed: %v", err)
	}
	if err := sys.Flush(); err != nil {
		return fail(len(seq.Ops), "post-recovery flush failed: %v", err)
	}
	account(len(seq.Ops) - 1)
	if n := sys.QueuedWritebacks(); n != 0 {
		return fail(len(seq.Ops), "queue not empty after recovery drain: %d parked", n)
	}

	// Queue accounting closes: every writeback ever parked has drained.
	st := sys.Stats()
	if st.WritebacksQueued != st.WritebacksDrained {
		return fail(len(seq.Ops), "writeback accounting open: %d queued, %d drained",
			st.WritebacksQueued, st.WritebacksDrained)
	}
	// Outage ops fail fast; they never consume the transient retry budget.
	if st.Retries != 0 || st.RetryBackoffCycles != 0 {
		return fail(len(seq.Ops), "link outage consumed the transient retry budget: %d retries, %d backoff cycles",
			st.Retries, st.RetryBackoffCycles)
	}

	// --- Final sweep: byte-identical to the no-outage golden run, modulo
	// the ambiguity link-failed writes left. ---
	stride := uint64(plan.Geometry.ChunkSize)
	buf := make([]byte, stride)
	for addr := uint64(0); addr < size; addr += stride {
		if err := sys.Read(securemem.HomeAddr(addr), buf); err != nil {
			return fail(len(seq.Ops), "final sweep read at %#x: %v", addr, err)
		}
		if d := want.Observe(int(addr), buf); d != nil {
			return fail(len(seq.Ops), "post-drain read at %#x diverged from oracle: %v", addr, d)
		}
	}

	lst := lnk.Stats()
	res.Flaps += lst.Flaps
	res.Refusals += lst.DownRefusals
	res.FastFails += lst.FastFails
	res.Queued += st.WritebacksQueued
	res.Drained += st.WritebacksDrained
	res.Dropped += st.WritebacksDropped
	if st.WritebackQueuePeak > res.QueuePeak {
		res.QueuePeak = st.WritebackQueuePeak
	}
	return nil
}

// linkRollbackProbe stages the attack the reconciler exists to catch: a
// dirty page parks during an outage, the attacker rolls the home copy
// back to an older epoch while the link is down, and the drain must
// refuse with ErrFreshness — an outage must never launder a rollback.
func linkRollbackProbe(plan LinkPlan, seed int64) *Failure {
	seq := Sequence{Seed: seed}
	fail := func(format string, a ...any) *Failure {
		return &Failure{Seq: seq, OpIdx: -1, Target: "salus-link/rollback-probe",
			Loc: "rollback probe", Reason: fmt.Sprintf(format, a...)}
	}
	sys, err := securemem.New(plan.memConfig())
	if err != nil {
		return fail("target setup: %v", err)
	}
	manual := link.NewManual()
	lnk := link.New(manual, link.DefaultConfig())
	sys.AttachLink(lnk, nil, plan.QueueCap)

	cs := plan.Geometry.ChunkSize
	tag := byte(seed)
	write := func(t byte) error { return sys.Write(securemem.HomeAddr(0), FillData(t, cs)) }

	// Epoch A reaches the home tier, and the attacker snapshots it.
	if err := write(tag); err != nil {
		return fail("epoch A write: %v", err)
	}
	if err := sys.Flush(); err != nil {
		return fail("epoch A flush: %v", err)
	}
	snap := sys.SnapshotHomeChunk(securemem.HomeAddr(0))

	// Epoch B advances the home state past the snapshot.
	if err := write(tag + 1); err != nil {
		return fail("epoch B write: %v", err)
	}
	if err := sys.Flush(); err != nil {
		return fail("epoch B flush: %v", err)
	}

	// Epoch C is dirty in the device tier when the link dies and parks.
	if err := write(tag + 2); err != nil {
		return fail("epoch C write: %v", err)
	}
	manual.Set(link.StateDown)
	if err := sys.Flush(); err != nil {
		return fail("outage flush: %v", err)
	}
	if sys.QueuedWritebacks() == 0 {
		return fail("outage flush parked nothing")
	}

	// The rollback, staged while the system cannot look.
	sys.ReplayHomeChunk(snap)

	manual.Set(link.StateUp)
	lnk.ForceUp()
	if _, err := sys.DrainWritebacks(); !errors.Is(err, securemem.ErrFreshness) {
		return fail("drain over rolled-back home state: got %v, want ErrFreshness", err)
	}
	if sys.QueuedWritebacks() == 0 {
		return fail("rollback drain freed the parked writeback anyway")
	}
	return nil
}
