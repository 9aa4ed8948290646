package system

import (
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/secsim"
	"github.com/salus-sim/salus/internal/trace"
)

// maxSteadyAllocsPerRequest bounds the heap allocations an additional
// simulated memory request may cost once a run is warm. The event path
// allocates nothing per request; what remains is pools and maps growing
// to a run's working depth. Per-hop closures cost over ten per request.
const maxSteadyAllocsPerRequest = 0.1

func TestRunAllocationsPerRequest(t *testing.T) {
	w, _ := trace.ByName("nw")
	mono := func(b *secsim.Baseline) { b.SetMonolithicCounters(true) }
	for _, c := range []struct {
		name  string
		model Model
		tune  func(*secsim.Baseline)
	}{{"none", ModelNone, nil}, {"baseline", ModelBaseline, nil}, {"salus", ModelSalus, nil}, {"mono", ModelBaseline, mono}} {
		measure := func(accesses int) (allocs float64, reqs uint64) {
			opts := Options{Cfg: config.Default(), Workload: w, Model: c.model, TuneBaseline: c.tune,
				MaxAccesses: accesses, CycleLimit: 500_000_000}
			allocs = testing.AllocsPerRun(1, func() {
				r, err := Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				reqs = r.MemRequests
			})
			return allocs, reqs
		}
		// The difference between a short and a long run cancels the
		// construction cost; what is left is the per-request cost.
		a1, r1 := measure(10_000)
		a2, r2 := measure(40_000)
		per := (a2 - a1) / float64(r2-r1)
		t.Logf("%s: %.0f allocs for %d requests, %.0f for %d: %.4f per request", c.name, a1, r1, a2, r2, per)
		if per > maxSteadyAllocsPerRequest {
			t.Errorf("%s: %.3f allocations per steady-state request, want at most %.2f", c.name, per, maxSteadyAllocsPerRequest)
		}
	}
}
