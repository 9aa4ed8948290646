package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// loadFixture type-checks one violation package under testdata/src,
// plus any extra directories (fixture subpackages) named after it — one
// loader, so cross-package objects unify in the call graph.
func loadFixture(t *testing.T, name string, extra ...string) []*Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range append([]string{name}, extra...) {
		ps, err := l.LoadDir(filepath.Join("testdata", "src", dir))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no packages loaded", name)
	}
	return pkgs
}

// runGolden compares one analyzer's findings over its fixture against
// testdata/<name>.golden. Run with -update to regenerate.
func runGolden(t *testing.T, name string, a Analyzer, extra ...string) {
	t.Helper()
	findings := Run(loadFixture(t, name, extra...), []Analyzer{a})
	if len(findings) == 0 {
		t.Fatalf("%s: fixture produced no findings; the analyzer is blind to its bug class", name)
	}
	var b strings.Builder
	for _, f := range findings {
		rel := filepath.ToSlash(f.Pos.Filename)
		if i := strings.Index(rel, "testdata/src/"); i >= 0 {
			rel = rel[i+len("testdata/src/"):]
		}
		fmt.Fprintf(&b, "%s:%d: %s: %s [%s]\n", rel, f.Pos.Line, f.Severity, f.Message, f.Analyzer)
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s findings mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestAddrDomainGolden(t *testing.T)     { runGolden(t, "addrdomain", AddrDomain{}) }
func TestLockDisciplineGolden(t *testing.T) { runGolden(t, "lockdiscipline", LockDiscipline{}) }
func TestDroppedErrGolden(t *testing.T)     { runGolden(t, "securemem", DroppedErr{}) }
func TestCtrWidthGolden(t *testing.T)       { runGolden(t, "ctrwidth", CtrWidth{}) }
func TestPlaintextFlowGolden(t *testing.T)  { runGolden(t, "plaintextflow", PlaintextFlow{}) }
func TestLockOrderGolden(t *testing.T)      { runGolden(t, "lockorder", LockOrder{}) }
func TestSimClockGolden(t *testing.T) {
	runGolden(t, "simclock", SimClock{}, filepath.Join("simclock", "util"))
}
func TestSimClockMapRangeGolden(t *testing.T) { runGolden(t, "maprange", SimClock{}) }

// TestRepoSelfScan asserts the real tree is clean under the full
// analyzer suite: every invariant the linters encode actually holds in
// the code the repo ships, and every suppression carries a reason.
func TestRepoSelfScan(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(pkgs, All()) {
		t.Errorf("self-scan finding: %s", f)
	}
}

// TestSuppressionReasonMandatory pins the machine-enforced ignore
// contract: a salus-lint:ignore with no written reason suppresses
// nothing and is itself an error finding.
func TestSuppressionReasonMandatory(t *testing.T) {
	pkgs := loadFixture(t, "suppression")
	findings := Run(pkgs, []Analyzer{LockDiscipline{}})
	var reasonless, leaked bool
	for _, f := range findings {
		if f.Analyzer == SuppressionAnalyzer {
			reasonless = true
			if f.Severity != Error {
				t.Errorf("reasonless ignore should be an error, got %s", f.Severity)
			}
		}
		if strings.Contains(f.Message, "guarded field") {
			leaked = true
		}
	}
	if !reasonless {
		t.Error("reasonless salus-lint:ignore produced no finding")
	}
	if !leaked {
		t.Error("reasonless salus-lint:ignore still suppressed the underlying finding")
	}
}

// TestFindingOrder pins the global sort: findings from different
// analyzers over multiple packages come back ordered by file, line,
// column — not grouped per package or per analyzer.
func TestFindingOrder(t *testing.T) {
	pkgs := loadFixture(t, "lockdiscipline", "addrdomain")
	findings := Run(pkgs, All())
	if len(findings) < 2 {
		t.Fatal("fixture mix produced too few findings to order")
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		switch {
		case a.Pos.Filename < b.Pos.Filename:
		case a.Pos.Filename == b.Pos.Filename && a.Pos.Line <= b.Pos.Line:
		default:
			t.Errorf("findings out of order: %s before %s", a, b)
		}
		if a == b {
			t.Errorf("duplicate finding survived dedup: %s", a)
		}
	}
}

// TestSuppressionComment proves the ignore mechanism: the fixture's
// Unwrap method has an unguarded access that only the salus-lint:ignore
// comment keeps out of the findings.
func TestSuppressionComment(t *testing.T) {
	pkgs := loadFixture(t, "lockdiscipline")
	for _, f := range Run(pkgs, []Analyzer{LockDiscipline{}}) {
		if strings.Contains(f.Message, "Unwrap") && strings.Contains(f.Message, "guarded field") {
			t.Errorf("suppressed finding leaked: %s", f)
		}
	}
}

// TestSeverities locks in the severity split: type-driven findings are
// errors, naming-convention inference stays a warning.
func TestSeverities(t *testing.T) {
	findings := Run(loadFixture(t, "addrdomain"), []Analyzer{AddrDomain{}})
	var errs, warns int
	for _, f := range findings {
		switch f.Severity {
		case Error:
			errs++
		case Warning:
			warns++
		}
	}
	if errs == 0 || warns == 0 {
		t.Errorf("want both severities from the addrdomain fixture, got %d errors / %d warnings", errs, warns)
	}
}
