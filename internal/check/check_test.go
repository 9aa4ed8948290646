package check

import (
	"reflect"
	"strings"
	"testing"
)

// quickConfig is a reduced budget for unit tests; the full smoke budget
// runs in make check-smoke and TestSmokeBudgetClean below.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Seeds = 3
	cfg.Ops = 120
	cfg.TotalPages = 8
	cfg.DevicePages = 2
	return cfg
}

func TestRunClean(t *testing.T) {
	res := Run(quickConfig())
	if res.Failure != nil {
		t.Fatalf("checker reported a failure on the real models:\n%s", res.Failure)
	}
	if res.SeedsRun != 3 {
		t.Errorf("SeedsRun = %d, want 3", res.SeedsRun)
	}
	if res.OpsRun == 0 {
		t.Error("no ops recorded")
	}
}

func TestSmokeBudgetClean(t *testing.T) {
	// The exact budget CI runs via `make check-smoke`.
	if testing.Short() {
		t.Skip("full smoke budget in -short mode")
	}
	res := Run(DefaultConfig())
	if res.Failure != nil {
		t.Fatalf("smoke budget failed:\n%s\n\nminimal reproducer:\n%s",
			res.Failure, res.Failure.GoTest("smoke"))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := quickConfig()
	a := GenerateSequence(cfg, 42)
	b := GenerateSequence(cfg, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different sequences")
	}
	c := GenerateSequence(cfg, 43)
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestGenerateCoversOpVocabulary(t *testing.T) {
	cfg := quickConfig()
	cfg.Ops = 2000
	seen := map[OpKind]int{}
	hostile := 0
	size := cfg.size()
	for _, op := range GenerateSequence(cfg, 7).Ops {
		seen[op.Kind]++
		if op.Addr > size || uint64(op.Len) > size-op.Addr {
			hostile++
		}
	}
	for k := OpRead; k <= OpSuspendResume; k++ {
		if seen[k] == 0 {
			t.Errorf("2000 generated ops never produced %v", k)
		}
	}
	if hostile == 0 {
		t.Error("no hostile out-of-range ops generated")
	}
}

func TestFillDataDeterministic(t *testing.T) {
	if !reflect.DeepEqual(FillData(9, 33), FillData(9, 33)) {
		t.Fatal("FillData not deterministic")
	}
	if reflect.DeepEqual(FillData(9, 33), FillData(10, 33)) {
		t.Fatal("FillData ignores the tag")
	}
}

// corruptingTarget behaves correctly until its nth write, then silently
// flips a bit of what it stores — a model of the silent arithmetic bugs
// the checker exists to flush out.
type corruptingTarget struct {
	plainTarget
	writes    int
	corruptAt int
}

func (c *corruptingTarget) Write(addr uint64, data []byte) error {
	c.writes++
	if err := c.plainTarget.Write(addr, data); err != nil {
		return err
	}
	if c.writes == c.corruptAt && len(data) > 0 {
		c.data[addr] ^= 0x80
	}
	return nil
}

func TestCheckerCatchesSilentCorruption(t *testing.T) {
	cfg := quickConfig()
	cfg.Seeds = 10
	cfg.NewTargets = func(c Config) ([]Target, error) {
		return []Target{&corruptingTarget{
			plainTarget: plainTarget{data: make([]byte, c.size())},
			corruptAt:   20,
		}}, nil
	}
	res := Run(cfg)
	if res.Failure == nil {
		t.Fatal("checker missed a silently corrupting target")
	}
	if !strings.Contains(res.Failure.Reason, "diverged from oracle") {
		t.Errorf("unexpected reason: %s", res.Failure.Reason)
	}
}

func TestShrinkProducesMinimalReproducer(t *testing.T) {
	cfg := quickConfig()
	cfg.Seeds = 10
	cfg.NewTargets = func(c Config) ([]Target, error) {
		return []Target{&corruptingTarget{
			plainTarget: plainTarget{data: make([]byte, c.size())},
			corruptAt:   20,
		}}, nil
	}
	res := Run(cfg)
	if res.Failure == nil {
		t.Fatal("no failure to shrink")
	}
	// The corruption fires on the 20th write; the minimal reproducer still
	// needs 20 writes but every read and non-write op should be gone, and
	// the divergence must surface on the final kept op.
	writes := 0
	for _, op := range res.Failure.Seq.Ops {
		if op.Kind == OpWrite || op.Kind == OpWriteThrough {
			writes++
		}
	}
	if len(res.Failure.Seq.Ops) != writes {
		t.Errorf("shrunk sequence keeps %d non-write ops: %v",
			len(res.Failure.Seq.Ops)-writes, res.Failure.Seq.Ops)
	}
	if writes != 20 {
		t.Errorf("shrunk sequence has %d writes, want exactly 20", writes)
	}
	// And replaying the shrunk sequence against the same faulty target
	// must still fail — the reproducer is self-contained.
	if cfg.Replay(res.Failure.Seq) == nil {
		t.Error("shrunk sequence does not reproduce the failure")
	}
}

func TestGoTestRendering(t *testing.T) {
	cfg := quickConfig()
	f := &Failure{
		Seq: Sequence{Seed: 5, Ops: []Op{
			{Kind: OpWrite, Addr: 0x40, Len: 33, Tag: 3},
			{Kind: OpFlush},
			{Kind: OpRead, Addr: 0x40, Len: 33},
		}},
		OpIdx:    2,
		Target:   "salus",
		Reason:   "example",
		Replayer: cfg,
	}
	src := f.GoTest("example")
	for _, want := range []string{
		"func TestCheckRegression_example(t *testing.T)",
		"check.DefaultConfig()",
		"cfg.TotalPages = 8",
		"cfg.DevicePages = 2",
		"{Kind: check.OpWrite, Addr: 0x40, Len: 33, Tag: 3},",
		"{Kind: check.OpFlush},",
		"{Kind: check.OpRead, Addr: 0x40, Len: 33},",
		"cfg.Replay(seq)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted test missing %q:\n%s", want, src)
		}
	}
}

func TestFailureString(t *testing.T) {
	f := &Failure{
		Seq:    Sequence{Seed: 9, Ops: []Op{{Kind: OpFlush}}},
		OpIdx:  0,
		Target: "salus",
		Reason: "boom",
	}
	s := f.String()
	for _, want := range []string{"seed 9", "op 0", "flush", "salus", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("Failure.String() = %q missing %q", s, want)
		}
	}
	f.OpIdx = 1
	if !strings.Contains(f.String(), "final sweep") {
		t.Errorf("OpIdx past the sequence should render as the final sweep: %q", f.String())
	}
}
