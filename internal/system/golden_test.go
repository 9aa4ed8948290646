package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/secsim"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/trace"
)

// goldenAccesses keeps every golden run short while still faulting pages
// in, evicting them and (for monolithic counters) filling the metadata
// MSHRs.
const goldenAccesses = 4000

// goldenCase is one run of the golden matrix.
type goldenCase struct {
	name string
	opts Options
}

// goldenMatrix is every security model and counter organisation on two
// suite workloads, plus one predictive-migration run.
func goldenMatrix(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, name := range []string{"nw", "btree"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("missing suite workload %s", name)
		}
		base := Options{Cfg: config.Default(), Workload: w, MaxAccesses: goldenAccesses, CycleLimit: 500_000_000}
		none, conv, sal, noMove, mono := base, base, base, base, base
		none.Model = ModelNone
		conv.Model = ModelBaseline
		sal.Model = ModelSalus
		noMove.Model = ModelBaseline
		noMove.TuneBaseline = func(b *secsim.Baseline) { b.SkipRelocationWork = true }
		mono.Model = ModelBaseline
		mono.TuneBaseline = func(b *secsim.Baseline) { b.SetMonolithicCounters(true) }
		cases = append(cases,
			goldenCase{name + "/none", none},
			goldenCase{name + "/split", conv},
			goldenCase{name + "/salus", sal},
			goldenCase{name + "/nomove", noMove},
			goldenCase{name + "/mono", mono})
	}
	w, _ := trace.ByName("nw")
	pred := Options{Cfg: config.Default(), Workload: w, Model: ModelSalus, MaxAccesses: goldenAccesses,
		CycleLimit: 500_000_000, PredictiveMigration: true}
	return append(cases, goldenCase{"nw/salus-predictive", pred})
}

// goldenDigest hashes every field of a run.
func goldenDigest(r *stats.Run) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *r)))
	return hex.EncodeToString(sum[:8])
}

// goldenDigests are the recorded statistics of goldenMatrix. A change to
// the simulator that is meant to be a pure speed-up must leave every one
// of them as it is; a deliberate model change re-records the rows it
// moves and states the delta.
var goldenDigests = map[string]string{
	"nw/none":             "7ed71f0fcfc6096f",
	"nw/split":            "53f01e39a3ab0035",
	"nw/salus":            "9369006cce8f6f8e",
	"nw/nomove":           "32dc5572b7bf918f",
	"nw/mono":             "386a2007ccec4626",
	"btree/none":          "90ac01400f4d49d5",
	"btree/split":         "d6447eeacc8e00c8",
	"btree/salus":         "9ef772c1eeeb19ef",
	"btree/nomove":        "1f384ccbae056ba5",
	"btree/mono":          "1283a32f38792ba7",
	"nw/salus-predictive": "53b5c07da38fe50e",
}

func TestGoldenResults(t *testing.T) {
	for _, c := range goldenMatrix(t) {
		r, err := Run(c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := goldenDigest(r), goldenDigests[c.name]; got != want {
			t.Errorf("%s: statistics digest %s, want %s (cycles=%d ipc=%.6f)", c.name, got, want, r.Cycles, r.IPC())
		}
	}
}
