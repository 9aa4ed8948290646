package check

import (
	"strings"
	"testing"
)

// tinyCrashPlan keeps crash tests fast: few ops, tight checkpoint cadence,
// small footprint — still enough to commit several epochs and exercise
// every damage mode at every cut.
func tinyCrashPlan() CrashPlan {
	plan := DefaultCrashPlan()
	plan.Seeds = 2
	plan.Ops = 24
	plan.CheckpointEvery = 8
	plan.TotalPages = 4
	plan.DevicePages = 2
	return plan
}

func TestCrashCampaignSmoke(t *testing.T) {
	res := Run(tinyCrashPlan())
	if res.Failure != nil {
		t.Fatalf("crash campaign failed: %v", res.Failure)
	}
	if res.SeedsRun != 2 {
		t.Errorf("SeedsRun = %d, want 2", res.SeedsRun)
	}
	// Baseline + interleaved + final checkpoints per seed.
	if res.Epochs < 2*3 {
		t.Errorf("Epochs = %d, want >= 6", res.Epochs)
	}
	if res.Cuts == 0 || res.Recoveries == 0 {
		t.Errorf("enumeration did no work: %d cuts, %d recoveries", res.Cuts, res.Recoveries)
	}
	// Every cut either recovers or detects, except the ones before the
	// baseline commit's final sync: per seed the empty baseline epoch is
	// exactly 3 tape events (sync, commit write, sync), so boundaries
	// e=0..2 pair with no epoch, under each of the 4 damage modes.
	preCommit := res.SeedsRun * 3 * 4
	if res.Recoveries+res.Detected != res.Cuts-preCommit {
		t.Errorf("cuts %d - %d pre-commit != recoveries %d + detections %d",
			res.Cuts, preCommit, res.Recoveries, res.Detected)
	}
	if res.Detected == 0 {
		t.Error("no corrupting cut was detected — CutCorrupt is not biting")
	}
}

func TestGenerateCrashSequenceDeterministic(t *testing.T) {
	plan := tinyCrashPlan()
	a := GenerateCrashSequence(plan, 7)
	b := GenerateCrashSequence(plan, 7)
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a.Ops[i], b.Ops[i])
		}
	}
	var epochs int
	size := plan.size()
	for _, op := range a.Ops {
		if op.Kind == OpEpochCheckpoint {
			epochs++
			continue
		}
		if op.Kind != OpFlush && (op.Addr >= size || uint64(op.Len) > size-op.Addr) {
			t.Fatalf("generated out-of-range op %v", op)
		}
	}
	if epochs < 2 {
		t.Fatalf("sequence carries %d epoch checkpoints, want >= 2", epochs)
	}
	if last := a.Ops[len(a.Ops)-1]; last.Kind != OpEpochCheckpoint {
		t.Fatalf("sequence must end in an epoch checkpoint, ends in %v", last)
	}
}

func TestReplayCrashSequenceRejectsOutOfRange(t *testing.T) {
	plan := tinyCrashPlan()
	seq := Sequence{Seed: 1, Ops: []Op{
		{Kind: OpWrite, Addr: plan.size(), Len: 8, Tag: 1},
		{Kind: OpEpochCheckpoint},
	}}
	f := plan.Replay(seq)
	if f == nil {
		t.Fatal("out-of-range op accepted by crash replay")
	}
	if !strings.Contains(f.Reason, "in range") {
		t.Errorf("unexpected reason: %s", f.Reason)
	}
}

func TestReplayCrashSequenceMinimal(t *testing.T) {
	// The degenerate sequence — one write, one commit — must still pass
	// full enumeration: it is the shape shrunk reproducers converge to.
	plan := tinyCrashPlan()
	seq := Sequence{Seed: 3, Ops: []Op{
		{Kind: OpWrite, Addr: 0, Len: 32, Tag: 5},
		{Kind: OpEpochCheckpoint},
		{Kind: OpWriteThrough, Addr: 2 * 4096, Len: 32, Tag: 6},
		{Kind: OpEpochCheckpoint},
	}}
	if f := plan.Replay(seq); f != nil {
		t.Fatalf("minimal crash sequence failed: %v", f)
	}
}

func TestCrashGoTest(t *testing.T) {
	plan := tinyCrashPlan()
	f := &Failure{
		Seq: Sequence{Seed: 9, Ops: []Op{
			{Kind: OpWrite, Addr: 0x40, Len: 3, Tag: 2},
			{Kind: OpEpochCheckpoint},
		}},
		OpIdx:  2,
		Loc:    "cut 4/9 (torn)",
		Target: crashTarget,
		Reason: "example",
	}
	f.Replayer = DefaultConfig()
	src := f.GoTest("x")
	if !strings.Contains(src, "cfg.Replay(seq)") {
		t.Errorf("plain reproducer malformed:\n%s", src)
	}
	f.Replayer = plan
	csrc := f.GoTest("seed9")
	for _, want := range []string{
		"TestCrashRegression_seed9",
		"check.DefaultCrashPlan()",
		"plan.TotalPages = 4",
		"check.OpEpochCheckpoint",
		"plan.Replay(seq)",
		"cut 4/9 (torn)",
	} {
		if !strings.Contains(csrc, want) {
			t.Errorf("crash reproducer missing %q:\n%s", want, csrc)
		}
	}
}

func TestCrashFailureLoc(t *testing.T) {
	f := &Failure{Seq: Sequence{Seed: 2}, OpIdx: 0, Loc: "rollback probe", Target: crashTarget, Reason: "r"}
	if s := f.String(); !strings.Contains(s, "rollback probe") {
		t.Errorf("Loc not rendered: %s", s)
	}
}
