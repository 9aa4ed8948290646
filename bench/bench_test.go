package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"github.com/salus-sim/salus/internal/experiments"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/system"
	"github.com/salus-sim/salus/internal/trace"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantV float64 // with samples 1..n, the value is the rank
	}{
		{2000, 1980}, // p99 leaves 20 beyond: the p99 cap binds
		{1000, 990},  // p99 leaves exactly 10 beyond
		{999, 989},   // p99 would leave 9: one rank lower
		{100, 90},
		{56, 46}, // one sim-paper round: p82
		{20, 10}, // the lowest count that still has a tail at the median
		{19, 19}, // fewer: the maximum
		{6, 6},   // one sim-mshr round
		{1, 1},
	} {
		v, q := tail(seq(tc.n))
		if v != tc.wantV {
			t.Errorf("n=%d: tail %v, want %v", tc.n, v, tc.wantV)
		}
		if q != v/float64(tc.n) {
			t.Errorf("n=%d: quantile %v does not match rank %v", tc.n, q, v)
		}
		if beyond := tc.n - int(v); tc.n >= 20 && (beyond < 10 || q > 0.99) {
			t.Errorf("n=%d: tail at rank %v leaves %d beyond, q=%v", tc.n, v, beyond, q)
		}
	}
	if v, q := tail(nil); v != 0 || q != 0 {
		t.Errorf("empty: %v, %v", v, q)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestFidelityErr(t *testing.T) {
	if got := fidelityErr(1.2778, paperFig3Slowdown); math.Abs(got-0.7622) > 1e-12 {
		t.Errorf("below the paper: %v", got)
	}
	if got := fidelityErr(34.47, paperFig10GainPct); math.Abs(got-4.53) > 1e-12 {
		t.Errorf("above the paper: %v", got)
	}
}

// TestFigureHelpersMatchRunner pins the benchmark's figure arithmetic to
// experiments.Runner's on a reduced suite: the same runs must give the
// same Fig. 3, 10 and 11 summaries, bit for bit.
func TestFigureHelpersMatchRunner(t *testing.T) {
	s := experiments.Default()
	s.Workloads = nil
	for _, name := range []string{"backprop", "nw"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatal(name)
		}
		s.Workloads = append(s.Workloads, w)
	}
	s.MaxAccesses = 4000
	r := experiments.NewRunner(s)
	f3, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	f10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	f11, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}

	var outs []simOut
	for _, c := range paperPlan(s, 0) {
		run, err := system.Run(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, simOut{simCase: c, run: run})
	}
	none, base, sal, noMove := byLabel(outs, "none"), byLabel(outs, "baseline"), byLabel(outs, "salus"), byLabel(outs, "nomove")
	got3, err := fig3Slowdown(base, noMove)
	if err != nil {
		t.Fatal(err)
	}
	got10, err := fig10GainPct(none, base, sal)
	if err != nil {
		t.Fatal(err)
	}
	got11, err := fig11Traffic(base, sal)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"fig3", got3, f3.Summary["geomean slowdown (paper: 2.04)"]},
		{"fig10", got10, f10.Summary["geomean improvement %% (paper: 29.94)"]},
		{"fig11", got11, f11.Summary["mean normalised traffic (paper: 0.4779)"]},
	} {
		if c.got != c.want || c.want == 0 {
			t.Errorf("%s: benchmark %v, runner %v", c.name, c.got, c.want)
		}
	}

	res := newResult()
	checkPaper(res, outs)
	if !res.correct() {
		t.Errorf("paper checks failed on the reduced suite: %+v", res.checks)
	}
	if _, err := fig3Slowdown(base, noMove[:1]); err == nil {
		t.Error("unpaired runs accepted")
	}
}

// TestRunDigestCoversEveryStatistic: a change to any simulated counter,
// exported or not, changes the digest.
func TestRunDigestCoversEveryStatistic(t *testing.T) {
	r := stats.Run{Workload: "w", Model: "salus", Cycles: 10, CacheHitRates: map[string]float64{"device.mac": 0.5}}
	d := runDigest(&r)
	r.Traffic.Add(stats.CXL, stats.MAC, 1)
	if runDigest(&r) == d {
		t.Error("traffic change kept the digest")
	}
	d = runDigest(&r)
	r.CacheHitRates["device.mac"] = 0.25
	if runDigest(&r) == d {
		t.Error("hit-rate change kept the digest")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/salus-sim/salus/internal/sim.(*Engine).At":                 "sim",
		"github.com/salus-sim/salus/internal/pagecache.(*Cache).Access.func1":  "pagecache",
		"github.com/salus-sim/salus/internal/security/cryptoeng.(*Engine).Pad": "cryptoeng",
		"github.com/salus-sim/salus/internal/stats.(*Histogram).Observe":       "other",
		"container/heap.Pop":                          "container_heap",
		"crypto/internal/fips140/aes.encryptBlockAsm": "crypto_aes",
		"crypto/internal/fips140/sha256.blockSHANI":   "crypto_sha256",
		"crypto/internal/fips140/hmac.(*HMAC).Sum":    "crypto_other",
		"hash/crc32.ieeeCLMUL":                        "hash_crc32",
		"internal/sync.(*Mutex).Unlock":               "sync",
		"runtime.mallocgc":                            "runtime_malloc",
		"runtime.scanobject":                          "runtime_gc",
		"runtime.futex":                               "runtime_other",
		"runtime.memmove":                             "runtime_other",
		"main.(*client).loop":                         "bench",
		"time.Now":                                    "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBucketProfile profiles a hashing loop and checks the standard
// library decoder attributes it.
func TestBucketProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := bucketProfile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	shares := map[string]float64{}
	for _, x := range b {
		total += x.v
		shares[x.k] = x.v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if shares["crypto_sha256"] < 50 {
		t.Errorf("hashing loop attributed %v%% to crypto_sha256: %v", shares["crypto_sha256"], b)
	}
}

func TestHistQuantile(t *testing.T) {
	before := &metrics.Float64Histogram{Counts: []uint64{0, 0, 0}, Buckets: []float64{math.Inf(-1), 1, 2, math.Inf(1)}}
	after := &metrics.Float64Histogram{Counts: []uint64{0, 50, 50}, Buckets: before.Buckets}
	if got := histQuantile(before, after, 0.25); got != 1.5 {
		t.Errorf("q.25 = %v, want 1.5 (interpolated in [1,2))", got)
	}
	if got := histQuantile(before, after, 0.99); got != 2 {
		t.Errorf("q.99 = %v, want 2 (lower edge of the open bucket)", got)
	}
	if got := histQuantile(after, after, 0.5); got != 0 {
		t.Errorf("no events: %v", got)
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metrics the command emits in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q declared, %q implemented", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d emitted", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], emitted %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestClientUnderConcurrentReaders runs a client loop while another
// goroutine drains its blackout window and the tracer records spans, as
// migrate-live does; run with -race. Every read is checked against the
// shadow copy, and the region reads back equal at the end.
func TestClientUnderConcurrentReaders(t *testing.T) {
	const pages = 32
	eng, err := securemem.NewConcurrent(securemem.Config{Geometry: geometry, Model: securemem.ModelSalus,
		TotalPages: pages, DevicePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := fill(eng.Write, 0, pages*geometry.PageSize, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(srv, 0, shadow, 2)
	tr := newTracer(t.TempDir())
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.loop(&stop, tr, tr.open())
	}()
	var longest float64
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		longest = math.Max(longest, c.takeMaxLatency())
	}
	stop.Store(true)
	<-done
	if c.failed != 0 || c.calls == 0 {
		t.Fatalf("%d of %d requests failed: %s", c.failed, c.calls, c.firstBad)
	}
	if longest <= 0 {
		t.Error("no latency reached the blackout window")
	}
	if err := c.verifyAll(eng); err != nil {
		t.Error(err)
	}
}
