package check

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/oracle"
	"github.com/salus-sim/salus/internal/securemem"
)

// Crash mode: the harness runs a generated Salus workload once against a
// crash.Tape-backed checkpoint journal (the golden run), recording for
// every committed epoch the trusted root the TCB would hold, the tape
// position at which its commit became durable, the system's durable-state
// digest, and a copy of the plaintext oracle. It then enumerates every
// crash point of the tape — power lost after each write or sync event —
// under every damage mode, recovers from the damaged medium with the root
// the TCB would have held at that instant, and asserts the recovery
// contract:
//
//   - at an honest cut (only unsynced writes damaged), Recover must
//     reconstruct the last committed epoch byte-identically — digest
//     equality against the golden run's record of that epoch;
//   - at a corrupting cut (a bit flipped in data a Sync had promised
//     durable), Recover must either still reconstruct the epoch exactly
//     (the flip landed past the trusted commit, where replay never looks)
//     or fail with crash.ErrTornCheckpoint / crash.ErrRollback — never an
//     untyped error, never silently divergent state;
//   - before any epoch committed, the empty TCB root admits no journal;
//   - replaying the previous epoch's journal against the newest root — a
//     physical rollback attack on the stable store — fails with
//     crash.ErrRollback;
//   - recovering from the undamaged journal yields a system whose every
//     byte reads back equal to the oracle as of the last commit.
//
// A violation shrinks to a minimal sequence and renders as a regression
// test, like any other checker failure.

// crashTarget names the implicit target of crash-mode failures; crash mode
// is not differential across models — the journal is a ModelSalus feature.
const crashTarget = "salus-crash"

// CrashPlan sizes a crash-recovery campaign.
type CrashPlan struct {
	SeedRange
	Ops int // operations per generated sequence (checkpoints included)

	// CheckpointEvery replaces every CheckpointEvery-th generated op with
	// an epoch checkpoint; a final checkpoint is always appended. <= 0
	// means only the baseline and final checkpoints.
	CheckpointEvery int

	Space
}

// DefaultCrashPlan returns the smoke-budget crash campaign used by
// `make crash-smoke`: 8 seeds × 72 ops with an epoch checkpoint every 12
// ops, over an 8-page home space and 2 device frames. Each seed enumerates
// every tape event boundary × every damage mode — typically several
// hundred recoveries per seed.
func DefaultCrashPlan() CrashPlan {
	return CrashPlan{
		SeedRange:       SeedRange{Seeds: 8, FirstSeed: 1},
		Ops:             72,
		CheckpointEvery: 12,
		Space: Space{
			TotalPages:  8,
			DevicePages: 2,
			Geometry:    config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096},
		},
	}
}

// CrashResult summarises a crash-recovery campaign, or one seed of it.
type CrashResult struct {
	Verdict
	OpsRun     int
	Epochs     int // checkpoint epochs committed across all golden runs
	Cuts       int // (crash point × damage mode) recoveries attempted
	Recoveries int // recoveries that reconstructed the epoch byte-identically
	Detected   int // corrupting cuts that surfaced a typed detection error
}

func (r *CrashResult) progress() string {
	return fmt.Sprintf("%d ops, %d epochs, %d cuts (%d recovered, %d detected)",
		r.OpsRun, r.Epochs, r.Cuts, r.Recoveries, r.Detected)
}

func (r *CrashResult) add(o *CrashResult) {
	r.OpsRun += o.OpsRun
	r.Epochs += o.Epochs
	r.Cuts += o.Cuts
	r.Recoveries += o.Recoveries
	r.Detected += o.Detected
}

func (p CrashPlan) seedRange() SeedRange { return p.SeedRange }

func (p CrashPlan) runSeed(seed int64) CrashResult {
	seq := GenerateCrashSequence(p, seed)
	r := CrashResult{OpsRun: len(seq.Ops)}
	r.Failure = p.replay(seq, &r)
	return r
}

// Replay crash-replays one sequence: golden run, exhaustive cut
// enumeration, rollback probe, and final plaintext sweep. It returns the
// first contract violation or nil.
func (p CrashPlan) Replay(seq Sequence) *Failure {
	var scratch CrashResult
	return p.replay(seq, &scratch)
}

func (p CrashPlan) goSetup(b *strings.Builder) (string, string) {
	b.WriteString("\tplan := check.DefaultCrashPlan()\n")
	fmt.Fprintf(b, "\tplan.TotalPages = %d\n\tplan.DevicePages = %d\n", p.TotalPages, p.DevicePages)
	return "Crash", "plan"
}

// GenerateCrashSequence produces the deterministic crash-mode workload for
// one seed: the plain generator's address/length skew (chunk straddles,
// sector alignment, migration pressure) over a Salus-only op set, with an
// epoch checkpoint every plan.CheckpointEvery ops and one appended at the
// end. Hostile probes are omitted — bounds behaviour is the plain
// checker's job; crash mode wants maximal dirty-state churn between
// commits.
func GenerateCrashSequence(plan CrashPlan, seed int64) Sequence {
	g := gen{rng: rand.New(rand.NewSource(seed)), s: plan.Space}
	mix := opMix{
		{34, OpWrite},        // cached write: dirties device chunks
		{50, OpRead},         // cached read: migration churn
		{66, OpWriteThrough}, // direct CXL write: split-counter state
		{76, OpReadThrough},  // direct CXL read
		{88, OpCheckpoint},   // chunk checkpoint: collapses split counters
		{100, OpFlush},       // flush: evicts everything, mass home mutation
	}
	ops := make([]Op, 0, plan.Ops+2)
	var tag byte
	for i := 0; i < plan.Ops; i++ {
		if plan.CheckpointEvery > 0 && (i+1)%plan.CheckpointEvery == 0 {
			ops = append(ops, Op{Kind: OpEpochCheckpoint})
			continue
		}
		ops = append(ops, g.op(mix, &tag))
	}
	if len(ops) == 0 || ops[len(ops)-1].Kind != OpEpochCheckpoint {
		ops = append(ops, Op{Kind: OpEpochCheckpoint})
	}
	return Sequence{Seed: seed, Ops: ops}
}

// crashMark records everything the harness knows about one committed
// epoch: the root the TCB holds from the commit onwards, the tape position
// at which the commit's final sync landed, and the golden run's state.
type crashMark struct {
	root   securemem.TrustedRoot
	points int // tape.Points() when Checkpoint returned
	digest [32]byte
	want   *oracle.Bytes
}

// replay is Replay, accumulating campaign counters into res.
func (p CrashPlan) replay(seq Sequence, res *CrashResult) *Failure {
	cfg := p.memConfig()
	size := p.size()
	fail := func(idx int, loc, format string, a ...any) *Failure {
		return &Failure{Seq: seq, OpIdx: idx, Loc: loc, Target: crashTarget, Reason: fmt.Sprintf(format, a...), Replayer: p}
	}

	// --- Golden run: the workload, journaled onto a tape. ---
	sys, err := securemem.New(cfg)
	if err != nil {
		return fail(-1, "", "target setup: %v", err)
	}
	tape := &crash.Tape{}
	j := crash.NewJournal(tape)
	want := oracle.New(int(size))
	var marks []crashMark

	checkpoint := func() error {
		root, err := sys.Checkpoint(j)
		if err != nil {
			return err
		}
		marks = append(marks, crashMark{
			root:   root,
			points: tape.Points(),
			digest: sys.StateDigest(),
			want:   want.Snapshot(),
		})
		res.Epochs++
		return nil
	}
	// Through-ops degrade to the cached path as the differential target's
	// do, when either end of the range is resident.
	t := &systemTarget{model: securemem.ModelSalus, sys: sys}

	// Baseline epoch: commit before any ops, so every crash point from the
	// first commit onwards pairs with a recoverable epoch. A fresh system
	// has no dirty pages — this journals just the commit record.
	if err := checkpoint(); err != nil {
		return fail(-1, "", "baseline checkpoint: %v", err)
	}

	for i, op := range seq.Ops {
		if op.Kind != OpFlush && op.Kind != OpEpochCheckpoint {
			if op.Addr >= size || uint64(op.Len) > size-op.Addr {
				return fail(i, "", "crash sequences must stay in range (addr %#x len %d, size %#x)", op.Addr, op.Len, size)
			}
		}
		var err error
		switch op.Kind {
		case OpRead, OpReadThrough:
			buf := make([]byte, op.Len)
			if err = access(t, op, buf); err == nil {
				if d := want.Observe(int(op.Addr), buf); d != nil {
					return fail(i, "", "golden run diverged from the oracle: %v", d)
				}
			}
		case OpWrite, OpWriteThrough:
			data := FillData(op.Tag, op.Len)
			if err = access(t, op, data); err == nil {
				want.Write(int(op.Addr), data)
			}
		case OpCheckpoint:
			err = sys.CheckpointChunk(securemem.HomeAddr(op.Addr))
		case OpFlush:
			err = sys.Flush()
		case OpEpochCheckpoint:
			err = checkpoint()
		default:
			return fail(i, "", "op kind %v not supported in crash replay", op.Kind)
		}
		if err != nil {
			return fail(i, "", "golden run: %v", err)
		}
	}

	// --- Exhaustive cut enumeration. ---
	for e := 0; e <= tape.Points(); e++ {
		// The TCB root at crash point e belongs to the last epoch whose
		// commit protocol had fully finished by then.
		idx := -1
		for mi := range marks {
			if marks[mi].points <= e {
				idx = mi
			}
		}
		for mode := crash.DamageMode(0); mode < crash.NumDamageModes; mode++ {
			res.Cuts++
			cut := fmt.Sprintf("cut %d/%d (%v)", e, tape.Points(), mode)
			durable := tape.Cut(e, mode, seq.Seed)
			if idx < 0 {
				// No epoch has committed: the TCB holds no root yet, and an
				// empty root must never admit a journal — recovery before
				// the first commit is fresh provisioning, not Recover.
				if _, err := securemem.Recover(cfg, durable, securemem.TrustedRoot{}); err == nil {
					return fail(len(seq.Ops), cut, "empty trusted root admitted a journal")
				}
				continue
			}
			m := marks[idx]
			rec, err := securemem.Recover(cfg, durable, m.root)
			switch {
			case err == nil:
				if rec.StateDigest() != m.digest {
					return fail(len(seq.Ops), cut, "recovered state diverges from committed epoch %d", m.root.Epoch)
				}
				res.Recoveries++
			case mode.Honest():
				return fail(len(seq.Ops), cut, "honest crash failed to recover epoch %d: %v", m.root.Epoch, err)
			case errors.Is(err, crash.ErrTornCheckpoint) || errors.Is(err, crash.ErrRollback):
				res.Detected++
			default:
				return fail(len(seq.Ops), cut, "corruption surfaced as an untyped error: %v", err)
			}
		}
	}

	// --- Rollback probe: replay the previous epoch's journal against the
	// newest root, as a stable-store rollback attacker would. ---
	if len(marks) >= 2 {
		prev, last := marks[len(marks)-2], marks[len(marks)-1]
		stale := tape.Cut(prev.points, crash.CutClean, seq.Seed)
		if _, err := securemem.Recover(cfg, stale, last.root); !errors.Is(err, crash.ErrRollback) {
			return fail(len(seq.Ops), "rollback probe",
				"epoch-%d journal replayed against the epoch-%d root: got %v, want crash.ErrRollback",
				prev.root.Epoch, last.root.Epoch, err)
		}
	}

	// --- Final sweep: the undamaged journal recovers to a system whose
	// every byte equals the oracle as of the last commit. ---
	last := marks[len(marks)-1]
	recSys, err := securemem.Recover(cfg, tape.Bytes(), last.root)
	if err != nil {
		return fail(len(seq.Ops), "final sweep", "undamaged journal failed to recover: %v", err)
	}
	stride := uint64(p.Geometry.ChunkSize)
	buf := make([]byte, stride)
	for addr := uint64(0); addr < size; addr += stride {
		if err := recSys.Read(securemem.HomeAddr(addr), buf); err != nil {
			return fail(len(seq.Ops), "final sweep", "read at %#x after recovery: %v", addr, err)
		}
		if d := last.want.Observe(int(addr), buf); d != nil {
			return fail(len(seq.Ops), "final sweep", "recovered read at %#x diverged from oracle: %v", addr, d)
		}
	}
	return nil
}
