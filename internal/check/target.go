package check

import (
	"errors"
	"fmt"
	"reflect"

	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
)

// Target is the operation surface the checker drives. The production
// implementation wraps a *securemem.System (one per protection model);
// tests substitute deliberately broken implementations to prove the
// checker catches them.
//
// Contract: every method must return a non-nil error — never panic — for
// out-of-range addresses, including addresses whose addr+len wraps around
// 2^64. Ops a model does not support natively (the through-path and
// checkpoints outside ModelSalus) degrade to their closest supported
// equivalent so plaintext equivalence across models is preserved.
type Target interface {
	Name() string
	Read(addr uint64, buf []byte) error
	Write(addr uint64, data []byte) error
	ReadThrough(addr uint64, buf []byte) error
	WriteThrough(addr uint64, data []byte) error
	// VerifyRead is a read for the checker's own verification passes; it
	// should take the least-intrusive path available (e.g. not migrate a
	// page the op under test deliberately left non-resident).
	VerifyRead(addr uint64, buf []byte) error
	Checkpoint(addr uint64) error
	Flush() error
	SuspendResume() error
	// CheckInvariants asserts the target's internal invariants; the
	// checker calls it after every operation.
	CheckInvariants() error
}

// access performs a read- or write-class op on t through the path its
// kind names; buf is the read buffer or the write payload.
func access(t Target, op Op, buf []byte) error {
	switch op.Kind {
	case OpRead:
		return t.Read(op.Addr, buf)
	case OpReadThrough:
		return t.ReadThrough(op.Addr, buf)
	case OpWrite:
		return t.Write(op.Addr, buf)
	case OpWriteThrough:
		return t.WriteThrough(op.Addr, buf)
	}
	return fmt.Errorf("op kind %v is not an access", op.Kind)
}

// systemTarget adapts one securemem.System to the Target interface and
// carries the bookkeeping for its invariant checks.
type systemTarget struct {
	cfg    Config
	model  securemem.Model
	sys    *securemem.System
	prev   securemem.OpStats
	majors []uint64

	// Chaos-mode state: the injector and clock outlive a SuspendResume so
	// the fault schedule continues deterministically across the swap.
	inj   fault.Injector
	clock *sim.Engine
}

// NewSystemTarget builds a securemem-backed target for one model,
// fault-armed when cfg carries a FaultPlan.
func NewSystemTarget(cfg Config, model securemem.Model) (Target, error) {
	mc := cfg.memConfig()
	mc.Model = model
	sys, err := securemem.New(mc)
	if err != nil {
		return nil, err
	}
	t := &systemTarget{cfg: cfg, model: model, sys: sys, majors: sys.CounterMajors()}
	if cfg.Fault != nil {
		t.inj = cfg.Fault.New(cfg.faultSeed)
		t.clock = sim.NewEngine()
		sys.AttachFaults(t.inj, cfg.Fault.Policy, t.clock)
	}
	return t, nil
}

func (t *systemTarget) Name() string { return t.model.String() }

func (t *systemTarget) Read(addr uint64, buf []byte) error {
	return t.sys.Read(securemem.HomeAddr(addr), buf)
}

func (t *systemTarget) Write(addr uint64, data []byte) error {
	return t.sys.Write(securemem.HomeAddr(addr), data)
}

// throughOK reports whether the direct CXL path applies: ModelSalus and no
// end of the range resident (ranges are < 2 pages, so the ends suffice —
// the same rule securemem itself enforces).
func (t *systemTarget) throughOK(addr uint64, n int) bool {
	if t.model != securemem.ModelSalus {
		return false
	}
	if t.sys.IsResident(securemem.HomeAddr(addr)) {
		return false
	}
	return n == 0 || !t.sys.IsResident(securemem.HomeAddr(addr+uint64(n)-1))
}

func (t *systemTarget) ReadThrough(addr uint64, buf []byte) error {
	if t.throughOK(addr, len(buf)) {
		return t.sys.ReadThrough(securemem.HomeAddr(addr), buf)
	}
	return t.sys.Read(securemem.HomeAddr(addr), buf)
}

func (t *systemTarget) WriteThrough(addr uint64, data []byte) error {
	if t.throughOK(addr, len(data)) {
		return t.sys.WriteThrough(securemem.HomeAddr(addr), data)
	}
	return t.sys.Write(securemem.HomeAddr(addr), data)
}

func (t *systemTarget) VerifyRead(addr uint64, buf []byte) error {
	// Prefer the through-path so verification does not migrate pages the
	// sequence left in the CXL tier.
	return t.ReadThrough(addr, buf)
}

func (t *systemTarget) Checkpoint(addr uint64) error {
	if t.model == securemem.ModelSalus {
		return t.sys.CheckpointChunk(securemem.HomeAddr(addr))
	}
	// Other models have no split state; mirror the bounds contract so all
	// targets agree on which checkpoint ops are rejected.
	if addr >= t.sys.Size() {
		return securemem.ErrOutOfRange
	}
	return nil
}

// Flush flushes and asserts the metamorphic property that a second Flush
// is a no-op: no evictions, writebacks, or re-encryptions of any kind.
func (t *systemTarget) Flush() error {
	if err := t.sys.Flush(); err != nil {
		return err
	}
	before := t.sys.Stats()
	if err := t.sys.Flush(); err != nil {
		return fmt.Errorf("second flush errored: %w", err)
	}
	if after := t.sys.Stats(); after != before {
		return fmt.Errorf("flush not idempotent: stats moved from %+v to %+v", before, after)
	}
	if n := t.sys.ResidentPages(); n != 0 {
		return fmt.Errorf("flush left %d pages resident", n)
	}
	return nil
}

// SuspendResume suspends to an untrusted image plus trusted root and
// resumes from them, replacing the live system (ModelSalus); other models
// flush, the closest behaviour they support.
func (t *systemTarget) SuspendResume() error {
	if t.model != securemem.ModelSalus {
		return t.sys.Flush()
	}
	image, root, err := t.sys.Suspend()
	if err != nil {
		return fmt.Errorf("suspend: %w", err)
	}
	mc := t.cfg.memConfig()
	mc.Model = t.model
	resumed, err := securemem.Resume(mc, image, root)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	t.sys = resumed
	// Re-arm the same injector and clock: the fault schedule continues
	// across the swap, exactly as the hardware would keep failing.
	if t.inj != nil {
		resumed.AttachFaults(t.inj, t.cfg.Fault.Policy, t.clock)
	}
	// The resumed system starts with zeroed op counters; re-baseline the
	// monotonicity tracking. Counter majors survive the round trip, so
	// their baseline is kept — resuming must never regress a counter.
	t.prev = resumed.Stats()
	return nil
}

// PoisonedRange and FaultStats implement faultStateReporter, letting the
// chaos replay assert quarantine semantics and aggregate fault counters.
func (t *systemTarget) PoisonedRange(addr uint64, n int) bool {
	return t.sys.PoisonedRange(securemem.HomeAddr(addr), n)
}

func (t *systemTarget) FaultStats() securemem.OpStats { return t.sys.Stats() }

// CheckInvariants asserts stats conservation, per-model accounting, and
// counter monotonicity.
func (t *systemTarget) CheckInvariants() error {
	cur := t.sys.Stats()

	// Every operation counter is monotone non-decreasing.
	cv, pv := reflect.ValueOf(cur), reflect.ValueOf(t.prev)
	for i := 0; i < cv.NumField(); i++ {
		if cv.Field(i).Uint() < pv.Field(i).Uint() {
			return fmt.Errorf("stat %s regressed from %d to %d",
				cv.Type().Field(i).Name, pv.Field(i).Uint(), cv.Field(i).Uint())
		}
	}
	t.prev = cur

	// Tier conservation: every page that entered the device tier either
	// left it again — evicted, or dropped when its frame was quarantined
	// after an uncorrectable fault — or is still resident.
	if out := cur.PageEvictions + cur.PoisonPageDrops; cur.PageMigrationsIn < out {
		return fmt.Errorf("more pages left the device tier (%d evicted + %d poison-dropped) than migrated in (%d)",
			cur.PageEvictions, cur.PoisonPageDrops, cur.PageMigrationsIn)
	}
	if resident := uint64(t.sys.ResidentPages()); cur.PageMigrationsIn-cur.PageEvictions-cur.PoisonPageDrops != resident {
		return fmt.Errorf("tier conservation broken: %d in - %d evicted - %d poison-dropped != %d resident",
			cur.PageMigrationsIn, cur.PageEvictions, cur.PoisonPageDrops, resident)
	}

	switch t.model {
	case securemem.ModelSalus:
		// The headline property: relocation never re-encrypts.
		if cur.RelocationReEncryptions != 0 {
			return fmt.Errorf("salus performed %d relocation re-encryptions", cur.RelocationReEncryptions)
		}
		// Every evicted page's chunks are either written back or skipped.
		chunks := uint64(t.cfg.Geometry.ChunksPerPage())
		if got, want := cur.DirtyChunkWritebacks+cur.CleanChunksSkipped, chunks*cur.PageEvictions; got != want {
			return fmt.Errorf("eviction chunk accounting: %d dirty + clean != %d evictions × %d chunks",
				got, cur.PageEvictions, chunks)
		}
	case securemem.ModelConventional:
		// One re-encryption per sector per tier crossing, full pages only;
		// sectors of quarantined chunks are skipped but accounted.
		sectors := uint64(t.cfg.Geometry.SectorsPerPage())
		if got, want := cur.RelocationReEncryptions+cur.PoisonSkippedRelocations, sectors*(cur.PageMigrationsIn+cur.PageEvictions); got != want {
			return fmt.Errorf("conventional relocation re-encryptions + poison-skips = %d, want %d (one per sector per crossing)", got, want)
		}
		if cur.FullPageWritebacks != cur.PageEvictions {
			return fmt.Errorf("full-page writebacks %d != evictions %d", cur.FullPageWritebacks, cur.PageEvictions)
		}
	case securemem.ModelNone:
		if cur.MACVerifies != 0 || cur.BMTVerifies != 0 || cur.RelocationReEncryptions != 0 ||
			cur.CollapseReEncryptions != 0 || cur.OverflowReEncryptions != 0 {
			return errors.New("unprotected model recorded security operations")
		}
	}

	// Home major counters only move forward.
	majors := t.sys.CounterMajors()
	if len(majors) != len(t.majors) {
		return fmt.Errorf("counter major set changed size: %d -> %d", len(t.majors), len(majors))
	}
	for i := range majors {
		if majors[i] < t.majors[i] {
			return fmt.Errorf("counter major %d regressed from %d to %d", i, t.majors[i], majors[i])
		}
	}
	t.majors = majors
	return nil
}
