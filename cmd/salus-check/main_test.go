package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/salus-sim/salus/internal/check"
)

func TestCleanRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-seeds", "2", "-ops", "60", "-pages", "6", "-devpages", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("missing PASS summary: %q", out.String())
	}
}

func TestSingleModelRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-seeds", "1", "-ops", "40", "-pages", "6", "-devpages", "2", "-model", "salus", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "clean") {
		t.Errorf("-v produced no progress lines: %q", errOut.String())
	}
}

func TestCrashRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-crash", "-seeds", "2", "-ops", "24", "-pages", "4", "-devpages", "2", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "crash PASS") {
		t.Errorf("missing crash PASS summary: %q", out.String())
	}
	if !strings.Contains(out.String(), "cuts enumerated") {
		t.Errorf("missing enumeration accounting: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "epochs") {
		t.Errorf("-v produced no per-seed crash progress: %q", errOut.String())
	}
}

func TestLinkRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-link", "-seeds", "2", "-ops", "60", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "link PASS") {
		t.Errorf("missing link PASS summary: %q", out.String())
	}
	if !strings.Contains(out.String(), "availability") || !strings.Contains(out.String(), "writebacks") {
		t.Errorf("missing availability/writeback report: %q", out.String())
	}
	if !strings.Contains(out.String(), "rollback probes detected") {
		t.Errorf("missing rollback probe accounting: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "clean") {
		t.Errorf("-v produced no per-seed link progress: %q", errOut.String())
	}
}

func TestLinkCustomPlanAndQueueCap(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-link", "-seeds", "1", "-ops", "60",
		"-linkplan", "down@30..80", "-queuecap", "4"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "1 plans") {
		t.Errorf("custom plan did not replace the default set: %q", out.String())
	}
}

func TestServeRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-serve", "-seeds", "2", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "serve PASS") {
		t.Errorf("missing serve PASS summary: %q", out.String())
	}
	for _, want := range []string{"42 streams", "interactive", "p99", "p999"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("serve report missing %q: %q", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "avail") {
		t.Errorf("-v produced no per-seed serve progress: %q", errOut.String())
	}
}

func TestTenantRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-tenant", "-seeds", "2", "-ops", "40", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "tenant PASS") {
		t.Errorf("missing tenant PASS summary: %q", out.String())
	}
	for _, want := range []string{"hostile probes", "replays refused", "victim", "bystander", "attacker", "denied", "recovers"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("tenant report missing %q: %q", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "hostile") {
		t.Errorf("-v produced no per-seed tenant progress: %q", errOut.String())
	}
}

func TestMigrateRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-migrate", "-seeds", "2", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "migrate PASS") {
		t.Errorf("missing migrate PASS summary: %q", out.String())
	}
	for _, want := range []string{"attacks refused typed", "crash cuts clean", "resumes", "retired", "migrant", "skipped", "attest"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("migrate report missing %q: %q", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "migrations") {
		t.Errorf("-v produced no per-seed migrate progress: %q", errOut.String())
	}
}

// TestProbeFailureReported: a failure no sequence reproduces, such as a
// failed link rollback probe, is printed with its reason and fails the
// run; only a sequence failure gets a reproducer and a regression test.
func TestProbeFailureReported(t *testing.T) {
	probe := &check.Failure{Seq: check.Sequence{Seed: 3}, OpIdx: -1, Target: "salus-link/rollback-probe",
		Loc: "rollback probe", Reason: "drain accepted a rolled-back page"}
	var out bytes.Buffer
	if !failed(&out, "link ", &check.Verdict{SeedsRun: 1, Failure: probe}) {
		t.Fatal("a probe failure was not reported as failed")
	}
	want := "salus-check: link FAIL: seed 3, rollback probe, target salus-link/rollback-probe: drain accepted a rolled-back page\n"
	if out.String() != want {
		t.Errorf("probe failure report:\n got %q\nwant %q", out.String(), want)
	}

	seqFail := &check.Failure{Seq: check.Sequence{Seed: 3, Ops: []check.Op{{Kind: check.OpFlush}}},
		Reason: "diverged", Replayer: check.DefaultConfig()}
	out.Reset()
	if !failed(&out, "", &check.Verdict{SeedsRun: 1, Failure: seqFail}) {
		t.Fatal("a sequence failure was not reported as failed")
	}
	for _, s := range []string{"minimal reproducer (1 ops):", "func TestCheckRegression_seed3", "cfg.Replay(seq)"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("sequence failure report lacks %q:\n%s", s, out.String())
		}
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-model", "quantum"},
		{"-model", ""},
		{"-seeds", "0"},
		{"-devpages", "9", "-pages", "3"},
		{"-nonsense"},
		{"stray-positional"},
		{"-crash", "-chaos", "recoverable"},
		{"-crash", "-link"},
		{"-link", "-chaos", "recoverable"},
		{"-linkplan", "down@0..5"},
		{"-queuecap", "4"},
		{"-link", "-linkplan", "down@5..2"},
		{"-serve", "-chaos", "recoverable"},
		{"-serve", "-link"},
		{"-serve", "-crash"},
		{"-serve", "-linkplan", "down@0..5"},
		{"-clients", "4"},
		{"-workers", "4"},
		{"-tenant", "-serve"},
		{"-tenant", "-chaos", "recoverable"},
		{"-tenant", "-linkplan", "down@0..5"},
		{"-tenant", "-clients", "4"},
		{"-migrate", "-tenant"},
		{"-migrate", "-serve"},
		{"-migrate", "-crash"},
		{"-migrate", "-chaos", "recoverable"},
		{"-migrate", "-linkplan", "down@0..5"},
		{"-migrate", "-clients", "4"},
		{"-migrate", "-workers", "4"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := appMain(args, &out, &errOut); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

func TestParseModels(t *testing.T) {
	if ms, err := parseModels("salus, conventional"); err != nil || len(ms) != 2 {
		t.Errorf("parseModels(\"salus, conventional\") = %v, %v", ms, err)
	}
	if _, err := parseModels("bogus"); err == nil {
		t.Error("parseModels accepted an unknown model")
	}
}

// TestUnhonouredFlagsExitTwo: a flag set explicitly for a campaign that
// does not honour it is a usage error, never silently ignored. The first
// cases are ones that used to exit 0; the rest are derived from the
// campaign table, so a new flag or campaign is covered without editing
// this test.
func TestUnhonouredFlagsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-crash", "-queuecap", "4"},
		{"-migrate", "-ops", "500"},
		{"-link", "-model", "none"},
		{"-serve", "-model", "none"},
	}
	values := map[string]string{
		"seeds": "1", "ops": "10", "seed": "1", "model": "salus", "pages": "8", "devpages": "2",
		"chaos": "recoverable", "clients": "3", "workers": "2", "linkplan": "down@0..5", "queuecap": "4",
	}
	for _, c := range campaigns {
		for name, v := range values {
			if slices.Contains(c.honours, name) {
				continue
			}
			args := []string{"-" + name, v}
			if c.mode != "" {
				args = append([]string{"-" + c.mode}, args...)
			}
			cases = append(cases, args)
		}
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := appMain(args, &out, &errOut); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		} else if !strings.Contains(errOut.String(), "not honoured") {
			t.Errorf("args %v: usage error does not name the unhonoured flag: %q", args, errOut.String())
		}
	}
}

// TestSmokeTargetsAccepted runs every salus-check invocation in the
// Makefile at one seed: flag validation must accept all of them. Only a
// usage error (exit 2) fails the test; whether a single seed meets the
// serve SLO floor depends on goroutine scheduling and is the smoke
// targets' own business.
func TestSmokeTargetsAccepted(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(mk), "\n") {
		_, rest, ok := strings.Cut(line, "./cmd/salus-check")
		if !ok {
			continue
		}
		n++
		args := append(strings.Fields(rest), "-seeds", "1")
		var out, errOut bytes.Buffer
		if code := appMain(args, &out, &errOut); code == 2 {
			t.Errorf("make invocation %v: usage error: %s", args, errOut.String())
		}
	}
	if n < 7 {
		t.Fatalf("found %d salus-check invocations in the Makefile, want the 7 smoke targets", n)
	}
}
