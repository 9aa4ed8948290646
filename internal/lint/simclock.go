package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// SimClock forbids wall-clock time and unseeded randomness in the
// deterministic core. Every chaos ladder in the repo — differential
// checking, fault injection, crash journaling, link chaos — and every
// ddmin-shrunk reproducer assumes that re-running a trace with the same
// seed replays the same execution. One time.Now in a core package breaks
// that silently: the reproducer still runs, it just stops reproducing.
//
// Core packages are matched by package name (securemem, pagecache,
// check, fault, crash, link, sim, serve, the timing-simulator packages —
// with any _test variant; see simCorePackages), mirroring
// droppederr's name-based matching so fixtures can declare small
// stand-ins. Test files are included: a flaky test is exactly the
// failure mode this exists to prevent.
//
// The check is interprocedural: a core function calling a non-core
// module helper that reaches time.Now three frames down is flagged at
// the core-side call site, with the chain in the message.
//
// Go randomises map iteration order per range statement, so a core
// package ranging over a map is just as nondeterministic as one reading
// the clock whenever the order reaches a result. Every range over a
// map-typed expression in a core package is flagged; where the order
// provably cannot matter (the keys are sorted afterwards, or the loop
// computes an order-independent extremum), a reasoned suppression says so.
// Test files are exempt from this one rule: they range over maps to
// assert on every entry, where order never reaches a result.
type SimClock struct{}

// Name implements Analyzer.
func (SimClock) Name() string { return "simclock" }

// Doc implements Analyzer.
func (SimClock) Doc() string {
	return "forbids time.Now/time.Sleep/unseeded math/rand and unsuppressed map iteration in the deterministic core, including via helper chains"
}

// simCorePackages are the package names forming the deterministic core.
var simCorePackages = map[string]bool{
	"securemem": true,
	"pagecache": true,
	"check":     true,
	"fault":     true,
	"crash":     true,
	"link":      true,
	"sim":       true,
	// The traffic service charges deadlines, admission refills, and retry
	// backoff to the shared sim.Clock; wall-clock time leaking in would
	// make availability SLO runs unreproducible.
	"serve": true,
	// Tenant op quotas refill per attempt, never per wall-clock tick, so
	// cross-tenant denial counts stay a pure function of the seed.
	"tenant": true,
	// Migration sessions must replay bit-identically from a seed: the
	// handshake nonce is caller-provided and retry backoff is charged
	// to the sim clock, so neither wall time nor ambient randomness may
	// leak into the stream schedule.
	"migrate": true,
	// The timing simulator behind the paper's figures: its results are
	// gated byte for byte against BENCH_seed.json, so every package on
	// its event path, and the campaigns built on it, must be a pure
	// function of the configuration and the workload seeds.
	"cache":       true,
	"cxlmem":      true,
	"dram":        true,
	"experiments": true,
	"gpu":         true,
	"memreq":      true,
	"secsim":      true,
	"system":      true,
	"trace":       true,
	"xbar":        true,
}

// simClockCorePkg reports whether a package name is in the deterministic
// core ("securemem_test" counts as "securemem").
func simClockCorePkg(name string) bool {
	return simCorePackages[strings.TrimSuffix(name, "_test")]
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
// Duration arithmetic and constants are fine; anything that *reads the
// clock* or *waits on it* is not.
var forbiddenTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// allowedRandFuncs are the math/rand package-level constructors that
// produce a *seeded* generator — the sanctioned way to get randomness in
// the core. Everything else at package level draws from the implicitly
// seeded global source.
var allowedRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// simClockForbidden classifies a callee as nondeterministic, returning a
// short description ("" = fine).
func simClockForbidden(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Methods (e.g. on a seeded *rand.Rand or a live *time.Timer) are
		// downstream of an already-flagged constructor; don't double-report.
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			return "unseeded " + fn.Pkg().Name() + "." + fn.Name()
		}
	}
	return ""
}

// RunProgram implements ProgramAnalyzer.
func (a SimClock) RunProgram(prog *Program) []Finding {
	// chains[funcKey] describes how a function reaches the wall clock:
	// "time.Now", or "helperA -> helperB -> time.Now" ("" = it doesn't).
	chains := map[string]string{}
	prog.Fixpoint(func(fn *FuncNode) bool {
		if chains[fn.FullName()] != "" {
			return false
		}
		for _, site := range fn.Calls {
			if what := simClockForbidden(site.Callee); what != "" {
				chains[fn.FullName()] = what
				return true
			}
			for _, target := range site.Targets {
				if chain := chains[target.FullName()]; chain != "" {
					chains[fn.FullName()] = shortFuncName(target.Obj) + " -> " + chain
					return true
				}
			}
		}
		return false
	})

	var out []Finding
	for _, fn := range prog.Functions() {
		if !simClockCorePkg(fn.Pkg.Types.Name()) {
			continue
		}
		for _, site := range fn.Calls {
			if what := simClockForbidden(site.Callee); what != "" {
				out = append(out, Finding{
					Pos:      fn.posOf(site.Call),
					Analyzer: a.Name(),
					Severity: Error,
					Message: fmt.Sprintf("%s in deterministic core package %q breaks sim-clock reproducibility; thread the sim clock or a seeded source instead",
						what, fn.Pkg.Types.Name()),
				})
				continue
			}
			// Indirect: a core function calling a non-core module helper
			// whose chain reaches the clock. Core callees are skipped —
			// they get their own direct finding.
			for _, target := range site.Targets {
				if simClockCorePkg(target.Pkg.Types.Name()) {
					continue
				}
				if chain := chains[target.FullName()]; chain != "" {
					out = append(out, Finding{
						Pos:      fn.posOf(site.Call),
						Analyzer: a.Name(),
						Severity: Error,
						Message: fmt.Sprintf("call from deterministic core package %q reaches the wall clock (%s); thread the sim clock or a seeded source instead",
							fn.Pkg.Types.Name(), shortFuncName(target.Obj)+" -> "+chain),
					})
					break
				}
			}
		}
	}
	return append(out, mapRanges(prog)...)
}

// mapRanges flags every range statement over a map-typed expression in a
// core package's non-test files.
func mapRanges(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range prog.Packages {
		if !simClockCorePkg(pkg.Types.Name()) {
			continue
		}
		for _, file := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pkg.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						out = append(out, Finding{
							Pos:      pkg.Fset.Position(rs.Pos()),
							Analyzer: SimClock{}.Name(),
							Severity: Error,
							Message: fmt.Sprintf("range over a map in deterministic core package %q visits keys in random order; iterate sorted keys or a slice, or suppress with the reason order cannot matter",
								pkg.Types.Name()),
						})
					}
				}
				return true
			})
		}
	}
	return out
}
