package check

import (
	"fmt"
	"strings"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/securemem"
)

// SeedRange is the seed loop every campaign shares: Run covers
// [FirstSeed, FirstSeed+Seeds) and, when Verbose is set, reports one
// progress line per seed to it.
type SeedRange struct {
	Seeds     int
	FirstSeed int64
	Verbose   func(string)
}

// Space sizes the protected address space of a single-engine campaign.
type Space struct {
	TotalPages  int // home (CXL) pages; keep small so sweeps stay fast
	DevicePages int // device frames; << TotalPages keeps migration and eviction pressure up
	Geometry    config.Geometry
}

// size returns the home address-space size in bytes.
func (s Space) size() uint64 { return uint64(s.TotalPages) * uint64(s.Geometry.PageSize) }

// memConfig returns the securemem configuration of a Salus engine over s.
func (s Space) memConfig() securemem.Config {
	return securemem.Config{
		Geometry:    s.Geometry,
		Model:       securemem.ModelSalus,
		TotalPages:  s.TotalPages,
		DevicePages: s.DevicePages,
	}
}

// Verdict is the part of every campaign result that Run owns.
type Verdict struct {
	SeedsRun int
	// Failure is the first failing sequence of a shrinkable campaign,
	// shrunk to a minimal reproducer.
	Failure *Failure
	// Violations lists the contract breaches of the first failing seed,
	// each prefixed "seed N: ", and campaign-wide misses such as SLO
	// floors.
	Violations []string
}

// Failed reports whether the campaign found any violation.
func (v *Verdict) Failed() bool { return v.Failure != nil || len(v.Violations) > 0 }

func (v *Verdict) verdict() *Verdict { return v }

// Campaign is a plan that runs one seed at a time, producing a result of
// type R per seed; Run folds those into the campaign's R.
type Campaign[R any] interface {
	seedRange() SeedRange
	runSeed(seed int64) R
}

// result is implemented by every campaign result R: the embedded
// Verdict, the counters a progress line reports, and add, which folds one
// seed's result into the campaign total. add leaves the Verdict to Run.
type result[R any] interface {
	*R
	verdict() *Verdict
	progress() string
	add(o *R)
}

// finisher is implemented by campaigns that assert over the whole
// campaign (availability floors on the aggregate) once every seed passed.
type finisher[R any] interface{ finish(total *R) }

// Run runs a campaign's seeds in order and returns the sum of their
// results. It stops at the first failing seed; a failure that carries a
// Replayer is first shrunk to a minimal reproducer and replayed again, so
// the reported location and reason describe the minimal sequence.
func Run[R any, PR result[R]](c Campaign[R]) R {
	var total R
	tv := PR(&total).verdict()
	sr := c.seedRange()
	for i := 0; i < sr.Seeds; i++ {
		seed := sr.FirstSeed + int64(i)
		res := c.runSeed(seed)
		v := PR(&res).verdict()
		PR(&total).add(&res)
		tv.SeedsRun++
		if sr.Verbose != nil {
			status := "clean"
			if v.Failed() {
				status = "FAILED"
			}
			sr.Verbose(fmt.Sprintf("seed %d: %s, %s", seed, PR(&res).progress(), status))
		}
		if !v.Failed() {
			continue
		}
		if f := v.Failure; f != nil && f.Replayer != nil {
			if mf := f.Replayer.Replay(Shrink(f.Replayer, f.Seq)); mf != nil {
				v.Failure = mf
			}
		}
		tv.Failure = v.Failure
		for _, s := range v.Violations {
			tv.Violations = append(tv.Violations, fmt.Sprintf("seed %d: %s", seed, s))
		}
		return total
	}
	if f, ok := c.(finisher[R]); ok {
		f.finish(&total)
	}
	return total
}

// Replayer is a shrinkable campaign narrowed to the configuration one
// sequence failed under: its Replay is the predicate Shrink minimises
// and the call an emitted regression test makes.
type Replayer interface {
	Replay(seq Sequence) *Failure
	// goSetup writes the Go statements that rebuild the replayer in an
	// emitted test, returning the test-name prefix and the variable the
	// statements assign.
	goSetup(b *strings.Builder) (prefix, recv string)
}

// Shrink reduces a failing sequence to a (locally) minimal reproducer:
// first it truncates everything after the failing op, then it runs a
// ddmin-style pass, removing op windows of halving size as long as the
// reduced sequence still fails under r. Ops are self-contained (address,
// length, payload tag), so removing any subset leaves a replayable
// sequence, and replay is deterministic, so the result reproduces.
func Shrink(r Replayer, seq Sequence) Sequence {
	fails := func(ops []Op) *Failure { return r.Replay(Sequence{Seed: seq.Seed, Ops: ops}) }
	ops := append([]Op(nil), seq.Ops...)
	f := fails(ops)
	if f == nil {
		// Not reproducible from a fresh replay (should not happen with
		// deterministic targets); return the input unshrunk.
		return seq
	}
	// Drop the suffix the failure never reached.
	if f.OpIdx >= 0 && f.OpIdx+1 < len(ops) {
		if trunc := ops[:f.OpIdx+1]; fails(trunc) != nil {
			ops = trunc
		}
	}
	// Remove windows of halving size while the failure reproduces.
	for sz := len(ops) / 2; sz >= 1; sz /= 2 {
		for i := 0; i+sz <= len(ops); {
			cand := make([]Op, 0, len(ops)-sz)
			cand = append(cand, ops[:i]...)
			cand = append(cand, ops[i+sz:]...)
			if fails(cand) != nil {
				ops = cand
			} else {
				i += sz
			}
		}
	}
	return Sequence{Seed: seq.Seed, Ops: ops}
}

// GoTest renders the failure's sequence as a runnable Go regression test
// asserting that it replays cleanly under the failure's Replayer. It is
// meant to be committed next to the fix: paste it into a _test.go file
// in any package that can import internal/check. name becomes part of the
// test function name and must be a valid identifier suffix.
func (f *Failure) GoTest(name string) string {
	var setup strings.Builder
	prefix, recv := f.Replayer.goSetup(&setup)
	var b strings.Builder
	fmt.Fprintf(&b, "// Regression test emitted by the salus-check shrinker.\n")
	fmt.Fprintf(&b, "// Original failure: %s\n", f)
	fmt.Fprintf(&b, "func Test%sRegression_%s(t *testing.T) {\n%s", prefix, name, setup.String())
	fmt.Fprintf(&b, "\tseq := check.Sequence{Seed: %d, Ops: []check.Op{\n", f.Seq.Seed)
	for _, op := range f.Seq.Ops {
		k := opIdent(op.Kind)
		switch op.Kind {
		case OpFlush, OpSuspendResume, OpEpochCheckpoint, OpDrainWritebacks:
			fmt.Fprintf(&b, "\t\t{Kind: %s},\n", k)
		case OpCheckpoint:
			fmt.Fprintf(&b, "\t\t{Kind: %s, Addr: %#x},\n", k, op.Addr)
		case OpWrite, OpWriteThrough:
			fmt.Fprintf(&b, "\t\t{Kind: %s, Addr: %#x, Len: %d, Tag: %d},\n", k, op.Addr, op.Len, op.Tag)
		default:
			fmt.Fprintf(&b, "\t\t{Kind: %s, Addr: %#x, Len: %d},\n", k, op.Addr, op.Len)
		}
	}
	fmt.Fprintf(&b, "\t}}\n\tif f := %s.Replay(seq); f != nil {\n", recv)
	b.WriteString("\t\tt.Fatalf(\"regression reproduced: %v\", f)\n\t}\n}\n")
	return b.String()
}

// opIdent returns the exported identifier of an op kind, as emitted code
// spells it ("read-through" -> "check.OpReadThrough").
func opIdent(k OpKind) string {
	id := "check.Op"
	for _, w := range strings.Split(k.String(), "-") {
		id += strings.ToUpper(w[:1]) + w[1:]
	}
	return id
}
