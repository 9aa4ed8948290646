// Package check is a deterministic differential and metamorphic testing
// harness for the securemem protection models.
//
// A seeded PRNG generates randomized operation sequences — reads, cached
// writes, direct CXL reads/writes, chunk checkpoints, flushes, and
// suspend/resume cycles, skewed to force page migrations, evictions,
// partial-sector writes, and chunk-boundary straddles, with a fraction of
// hostile out-of-range and address-wrapping probes. Each sequence is
// replayed against every protection model plus a plain []byte oracle, and
// after every operation the harness asserts:
//
//   - plaintext equivalence: every model returns (and reads back) exactly
//     the oracle's bytes, and hostile operations are rejected by every
//     model without panicking;
//   - the Salus invariants: zero relocation re-encryptions, monotone
//     non-decreasing home major counters, idempotent Flush, and
//     suspend/resume round-trip fidelity;
//   - stats conservation: pages migrated in minus pages evicted equals
//     pages resident, eviction chunk accounting sums to chunks-per-page,
//     and every operation counter is monotone.
//
// On failure the sequence is shrunk (ddmin-style) to a minimal reproducer
// that can be printed as a runnable Go regression test, so every bug the
// checker finds lands with its own pinned test.
package check

import (
	"fmt"
	"strings"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/oracle"
	"github.com/salus-sim/salus/internal/securemem"
)

// OpKind identifies one generated operation.
type OpKind uint8

// The operation vocabulary. Through-ops and checkpoints degrade gracefully
// on models that lack the direct CXL path (see Target).
const (
	OpRead OpKind = iota
	OpWrite
	OpReadThrough
	OpWriteThrough
	OpCheckpoint
	OpFlush
	OpSuspendResume
	// OpEpochCheckpoint commits one incremental checkpoint epoch to the
	// crash journal. It is generated only for crash-mode sequences (see
	// crash.go); the plain replay treats it as a no-op because without a
	// journal it has no observable plaintext effect.
	OpEpochCheckpoint
	// OpDrainWritebacks drains the dirty-writeback queue parked by a link
	// outage. It is generated only for link-mode sequences (see
	// linkchaos.go); the plain replay treats it as a no-op because without
	// an attached link nothing ever parks.
	OpDrainWritebacks
)

// String returns the op name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReadThrough:
		return "read-through"
	case OpWriteThrough:
		return "write-through"
	case OpCheckpoint:
		return "checkpoint"
	case OpFlush:
		return "flush"
	case OpSuspendResume:
		return "suspend-resume"
	case OpEpochCheckpoint:
		return "epoch-checkpoint"
	case OpDrainWritebacks:
		return "drain-writebacks"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one self-contained operation: replaying it needs no state beyond
// the fields here, which is what makes sequences shrinkable.
type Op struct {
	Kind OpKind
	Addr uint64
	Len  int  // payload length for read/write-class ops
	Tag  byte // write payload = FillData(Tag, Len)
}

// String renders the op compactly.
func (o Op) String() string {
	switch o.Kind {
	case OpCheckpoint:
		return fmt.Sprintf("%v addr=%#x", o.Kind, o.Addr)
	case OpFlush, OpSuspendResume, OpEpochCheckpoint, OpDrainWritebacks:
		return o.Kind.String()
	case OpWrite, OpWriteThrough:
		return fmt.Sprintf("%v addr=%#x len=%d tag=%d", o.Kind, o.Addr, o.Len, o.Tag)
	}
	return fmt.Sprintf("%v addr=%#x len=%d", o.Kind, o.Addr, o.Len)
}

// Sequence is a replayable operation list tagged with the seed that
// generated it.
type Sequence struct {
	Seed int64
	Ops  []Op
}

// Config sizes a differential checking campaign.
type Config struct {
	SeedRange
	Ops int // operations per generated sequence
	Space

	// Models replayed differentially; the []byte oracle is always present.
	Models []securemem.Model

	// NewTargets overrides target construction. Tests use it to aim the
	// checker at deliberately broken implementations and prove it catches
	// them; nil builds one securemem target per entry in Models.
	NewTargets func(Config) ([]Target, error)

	// Fault, when non-nil, enables chaos mode: every securemem target is
	// armed with a deterministic fault injector and the replay asserts
	// the recovery contract (see FaultPlan).
	Fault *FaultPlan

	// faultSeed is the seed handed to Fault.New; Replay sets it from the
	// sequence being replayed so reproducers are deterministic.
	faultSeed int64
}

// DefaultConfig returns the smoke-budget configuration used by
// `make check-smoke`: 25 seeds × 200 ops against all three models, with a
// 12-page home space over 3 device frames so every seed sees constant
// migration and eviction pressure.
func DefaultConfig() Config {
	return Config{
		SeedRange: SeedRange{Seeds: 25, FirstSeed: 1},
		Ops:       200,
		Space: Space{
			TotalPages:  12,
			DevicePages: 3,
			Geometry:    config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096},
		},
		Models: []securemem.Model{securemem.ModelNone, securemem.ModelConventional, securemem.ModelSalus},
	}
}

func (c Config) targets() ([]Target, error) {
	if c.NewTargets != nil {
		return c.NewTargets(c)
	}
	ts := make([]Target, 0, len(c.Models))
	for _, m := range c.Models {
		t, err := NewSystemTarget(c, m)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// Failure describes one invariant violation, pinned to the op that
// triggered it.
type Failure struct {
	Seq    Sequence // the sequence that reproduces the failure
	OpIdx  int      // failing op index; len(Seq.Ops) = final sweep, -1 = setup
	Target string   // name of the diverging target
	Reason string
	// Loc, when non-empty, overrides the op-index location. Crash-mode
	// failures use it to name the crash point ("cut 17/80 (torn)") that
	// the whole sequence, not one op, led to.
	Loc string
	// Replayer replays Seq under the configuration that failed; Run
	// shrinks with it and GoTest emits it. Nil for failures no sequence
	// reproduces, such as a failed probe.
	Replayer Replayer
}

// String renders the failure with its location inside the sequence.
func (f *Failure) String() string {
	loc := "setup"
	switch {
	case f.Loc != "":
		loc = f.Loc
	case f.OpIdx >= 0 && f.OpIdx < len(f.Seq.Ops):
		loc = fmt.Sprintf("op %d (%v)", f.OpIdx, f.Seq.Ops[f.OpIdx])
	case f.OpIdx == len(f.Seq.Ops):
		loc = "final sweep"
	}
	return fmt.Sprintf("seed %d, %s, target %s: %s", f.Seq.Seed, loc, f.Target, f.Reason)
}

// Result summarises a differential campaign, or one seed of it.
type Result struct {
	Verdict
	OpsRun int
	// Faults sums every fault-armed target's fault counters (chaos mode).
	Faults FaultCounts
}

func (r *Result) progress() string { return fmt.Sprintf("%d ops", r.OpsRun) }

func (r *Result) add(o *Result) {
	r.OpsRun += o.OpsRun
	r.Faults.add(o.Faults)
}

// FaultCounts are the fault counters of securemem.OpStats a chaos
// campaign reports, summed over targets and seeds.
type FaultCounts struct {
	TransientFaults, Retries, RetryBackoffCycles   uint64
	PoisonFaults, StuckBitFaults                   uint64
	TransparentRecoveries                          uint64
	FramesQuarantined, ChunksPoisoned, PagesPinned uint64
}

// faultCounts returns st's fault counters.
func faultCounts(st *securemem.OpStats) FaultCounts {
	return FaultCounts{st.TransientFaults, st.Retries, st.RetryBackoffCycles,
		st.PoisonFaults, st.StuckBitFaults, st.TransparentRecoveries,
		st.FramesQuarantined, st.ChunksPoisoned, st.PagesPinned}
}

func (f *FaultCounts) add(o FaultCounts) {
	f.TransientFaults += o.TransientFaults
	f.Retries += o.Retries
	f.RetryBackoffCycles += o.RetryBackoffCycles
	f.PoisonFaults += o.PoisonFaults
	f.StuckBitFaults += o.StuckBitFaults
	f.TransparentRecoveries += o.TransparentRecoveries
	f.FramesQuarantined += o.FramesQuarantined
	f.ChunksPoisoned += o.ChunksPoisoned
	f.PagesPinned += o.PagesPinned
}

func (c Config) seedRange() SeedRange { return c.SeedRange }

func (c Config) runSeed(seed int64) Result {
	seq := GenerateSequence(c, seed)
	r := Result{OpsRun: len(seq.Ops)}
	var stats []securemem.OpStats
	r.Failure, stats = c.replay(seq)
	for _, st := range stats {
		r.Faults.add(faultCounts(&st))
	}
	return r
}

// Replay replays one sequence against freshly built targets, each held
// to its own oracle, returning the first invariant violation or nil.
func (c Config) Replay(seq Sequence) *Failure {
	f, _ := c.replay(seq)
	return f
}

func (c Config) goSetup(b *strings.Builder) (string, string) {
	b.WriteString("\tcfg := check.DefaultConfig()\n")
	fmt.Fprintf(b, "\tcfg.TotalPages = %d\n\tcfg.DevicePages = %d\n", c.TotalPages, c.DevicePages)
	if c.Fault != nil {
		// Re-arm the standard chaos plan. A custom FaultPlan cannot be
		// rendered as source; the emitted reproducer approximates it with
		// ChaosConfig at the same recoverability level.
		fmt.Fprintf(b, "\tcfg = check.ChaosConfig(cfg, %v)\n", c.Fault.Unrecoverable)
	}
	return "Check", "cfg"
}

// replay is Replay, also returning after a clean replay the final op
// stats of every fault-armed target, in target order.
func (c Config) replay(seq Sequence) (*Failure, []securemem.OpStats) {
	c.faultSeed = seq.Seed
	targets, err := c.targets()
	if err != nil {
		return &Failure{Seq: seq, OpIdx: -1, Reason: fmt.Sprintf("target setup: %v", err), Replayer: c}, nil
	}
	st := replayState{cfg: c, targets: targets, size: c.size()}
	for range targets {
		st.oracles = append(st.oracles, oracle.New(int(st.size)))
	}
	for i, op := range seq.Ops {
		if f := st.apply(op); f != nil {
			f.Seq, f.OpIdx, f.Replayer = seq, i, c
			return f, nil
		}
	}
	if f := st.finalSweep(); f != nil {
		f.Seq, f.OpIdx, f.Replayer = seq, len(seq.Ops), c
		return f, nil
	}
	var stats []securemem.OpStats
	for _, t := range targets {
		if r, ok := t.(faultStateReporter); ok && c.Fault != nil {
			stats = append(stats, r.FaultStats())
		}
	}
	return nil, stats
}

type replayState struct {
	cfg     Config
	targets []Target
	size    uint64
	// oracles holds one oracle per target: a write that fails typed under
	// an unrecoverable fault plan leaves that target's bytes ambiguous
	// between their old and new values, and only that target's.
	oracles []*oracle.Bytes
}

// wantErr reports whether every target must reject the op.
func (st *replayState) wantErr(op Op) bool {
	switch op.Kind {
	case OpFlush, OpSuspendResume, OpEpochCheckpoint, OpDrainWritebacks:
		return false
	case OpCheckpoint:
		return op.Addr >= st.size
	}
	return op.Addr > st.size || uint64(op.Len) > st.size-op.Addr
}

// apply runs one op on every target, then checks equivalence against each
// target's oracle and each target's internal invariants.
func (st *replayState) apply(op Op) *Failure {
	reject := st.wantErr(op)
	unrec := st.cfg.Fault != nil && st.cfg.Fault.Unrecoverable
	write := op.Kind == OpWrite || op.Kind == OpWriteThrough
	var data []byte
	if write {
		data = FillData(op.Tag, op.Len)
	}

	for ti, t := range st.targets {
		var buf []byte
		var err error
		switch op.Kind {
		case OpRead, OpReadThrough:
			buf = make([]byte, op.Len)
			err = safely(func() error { return access(t, op, buf) })
		case OpWrite, OpWriteThrough:
			err = safely(func() error { return access(t, op, data) })
		case OpCheckpoint:
			err = safely(func() error { return t.Checkpoint(op.Addr) })
		case OpFlush:
			err = safely(t.Flush)
		case OpSuspendResume:
			err = safely(t.SuspendResume)
		case OpEpochCheckpoint, OpDrainWritebacks:
			// Journal-backed epoch checkpoints and writeback drains only
			// exist in crash/link mode; the plain replay passes them through.
		default:
			return &Failure{Target: t.Name(), Reason: fmt.Sprintf("generator produced unknown op kind %d", op.Kind)}
		}

		if pe, ok := err.(*panicError); ok {
			return &Failure{Target: t.Name(), Reason: pe.Error()}
		}
		if reject && err == nil {
			return &Failure{Target: t.Name(), Reason: "accepted an out-of-range operation"}
		}
		if reject {
			continue
		}
		if err != nil {
			if !unrec {
				return &Failure{Target: t.Name(), Reason: fmt.Sprintf("rejected an in-range operation: %v", err)}
			}
			if !faultErr(err) {
				return &Failure{Target: t.Name(), Reason: fmt.Sprintf("in-range operation failed with a non-fault error: %v", err)}
			}
			// A typed fault surfaced — the unrecoverable-plan contract. A
			// failed write may have landed partially.
			if write {
				st.oracles[ti].Ambiguous(int(op.Addr), data)
			}
			continue
		}
		if write {
			st.oracles[ti].Write(int(op.Addr), data)
		}
		if op.Kind == OpRead || op.Kind == OpReadThrough {
			if f := st.observe(ti, "read", op.Addr, buf); f != nil {
				return f
			}
		}
	}

	// Read in-range writes back from every target so write-class
	// divergence surfaces on the very op that caused it, not on some
	// later read.
	if !reject && write {
		if f := st.verifyRange(op.Addr, op.Len); f != nil {
			return f
		}
	}

	for _, t := range st.targets {
		if err := safely(t.CheckInvariants); err != nil {
			return &Failure{Target: t.Name(), Reason: fmt.Sprintf("invariant: %v", err)}
		}
	}
	return nil
}

// observe checks bytes target ti served at addr: never from a range the
// target itself reports quarantined, and always what its oracle allows.
func (st *replayState) observe(ti int, what string, addr uint64, buf []byte) *Failure {
	t := st.targets[ti]
	if st.cfg.Fault != nil && st.cfg.Fault.Unrecoverable && len(buf) > 0 {
		if r, ok := t.(faultStateReporter); ok && r.PoisonedRange(addr, len(buf)) {
			return &Failure{Target: t.Name(), Reason: fmt.Sprintf("%s at %#x served bytes from a quarantined range", what, addr)}
		}
	}
	if err := st.oracles[ti].Observe(int(addr), buf); err != nil {
		return &Failure{Target: t.Name(), Reason: fmt.Sprintf("%s at %#x diverged from oracle: %v", what, addr, err)}
	}
	return nil
}

// verifyRange reads [addr, addr+n) back from every target and checks it
// against the target's oracle, using its least-intrusive read path.
func (st *replayState) verifyRange(addr uint64, n int) *Failure {
	unrec := st.cfg.Fault != nil && st.cfg.Fault.Unrecoverable
	for ti, t := range st.targets {
		buf := make([]byte, n)
		if err := safely(func() error { return t.VerifyRead(addr, buf) }); err != nil {
			if unrec && faultErr(err) {
				// The range is unreadable because the declared fault plan
				// poisoned it (or exhausted the retry budget). Surfacing
				// a typed error is the contract; nothing to compare.
				continue
			}
			return &Failure{Target: t.Name(), Reason: fmt.Sprintf("verify read at %#x: %v", addr, err)}
		}
		if f := st.observe(ti, "verify read", addr, buf); f != nil {
			return f
		}
	}
	return nil
}

// finalSweep checks every byte of every target against its oracle.
func (st *replayState) finalSweep() *Failure {
	stride := st.cfg.Geometry.ChunkSize
	for addr := uint64(0); addr < st.size; addr += uint64(stride) {
		if f := st.verifyRange(addr, stride); f != nil {
			return f
		}
	}
	return nil
}

// panicError marks a recovered panic. A panic is always a failure, even
// where an error return was expected.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// safely runs f, converting a panic into a *panicError.
func safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r}
		}
	}()
	return f()
}
