package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins the full stdout of the four deterministic
// campaigns at small budgets. The expected bytes live in testdata; a
// change to any of them is a change to what the checker reports and must
// be re-recorded on purpose.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"base.golden", []string{"-seeds", "4", "-ops", "80"}},
		{"chaos-unrecoverable.golden", []string{"-seeds", "4", "-ops", "80", "-chaos", "unrecoverable"}},
		{"crash.golden", []string{"-crash", "-seeds", "2", "-ops", "24", "-pages", "4", "-devpages", "2"}},
		{"link.golden", []string{"-link", "-seeds", "2", "-ops", "60"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out, errOut bytes.Buffer
			if code := appMain(c.args, &out, &errOut); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("stdout of %v drifted from testdata/%s:\ngot:\n%s\nwant:\n%s", c.args, c.golden, out.Bytes(), want)
			}
		})
	}
}
