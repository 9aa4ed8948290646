// Command bench is the repository's benchmark. One invocation runs one
// workload and prints a report, then, as its last line, one JSON object:
//
//	bench --workload sim-paper --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the workload runs once untraced and once traced (spans, CPU and mutex
// profiles, runtime metrics) and the JSON carries the per-layer metrics
// plus the tracing overhead. Every run checks the program's outputs and
// exits 1 when a check fails. NOTES.md explains the workloads and every
// metric; run.sh builds the command from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"github.com/salus-sim/salus/internal/experiments"
)

// setupReps is how often a workload repeats its set-up; setup_s is the
// median, and the last set-up is the one the timed phase uses.
const setupReps = 3

// outDir holds every file a run writes, relative to the checkout root.
const outDir = ".bench_build/bench-out"

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in BENCHMARK.json
// order. Each is measured on every workload; NOTES.md gives the unit of
// work and the timed call per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

type workload struct {
	name string
	run  func(*env) (*result, error)
}

// workloads are the ones BENCHMARK.json declares, in its order.
var workloads = []workload{
	{"sim-paper", func(e *env) (*result, error) { return runSim(e, paperPlan(experiments.Default(), e.seed), checkPaper) }},
	{"serve-mixed", runServe},
	{"migrate-live", runMigrate},
}

// handWorkloads run only when asked for by name. sim-mshr's
// run-to-run spread exceeds the largest bound BENCHMARK.json allows
// (NOTES.md), but the monolithic-counter poll it exposes is far larger
// than that spread, so it still decides a before/after comparison.
var handWorkloads = []workload{
	{"sim-mshr", func(e *env) (*result, error) { return runSim(e, mshrPlan(e.seed), checkMSHR) }},
}

func lookup(name string) *workload {
	for _, list := range [][]workload{workloads, handWorkloads} {
		for i := range list {
			if list[i].name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// env is what a workload run receives: its inputs and the tracer, which
// is nil in an untraced run (its methods are nil-safe).
type env struct {
	seed    int64
	seconds time.Duration
	tr      *tracer
	probe   probe
}

func (e *env) begin() { e.probe.begin(e.tr) }

func (e *env) end() timedDelta { return e.probe.end(e.tr) }

// result is one workload pass: its outcome counts, checks, raw samples
// and per-layer values.
type result struct {
	attempted, failed int
	checks            []checkResult
	busy              int // goroutines the workload keeps busy

	setup    []float64 // seconds per set-up repetition
	work     float64   // units of work done in the timed phase
	workSecs float64   // host seconds the work rate divides by
	lat      []float64 // user-facing call latencies, ms; endToEndMetrics sorts them
	timed    timedDelta

	layer map[string]float64
	notes []namedMetric   // metrics under the names other documents cite, for the report
	extra map[string]any  // digests and other evidence for the result file
	spans int             // spans the traced pass recorded
	prof  map[string][]kv // profile buckets by profile kind
	e2e   map[string]float64
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note"`
}

func newResult() *result {
	return &result{layer: map[string]float64{}, extra: map[string]any{}}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) note(name string, v float64, unit, note string) {
	r.notes = append(r.notes, namedMetric{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *result) correct() bool {
	if r.failed > 0 || len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// endToEndMetrics derives the end-to-end metrics from the raw samples.
// It sorts r.lat in place: a serve run holds about a million samples,
// and the garbage of copies would swing max_rss_mb from run to run.
func (r *result) endToEndMetrics() map[string]float64 {
	sort.Float64s(r.lat)
	tailV, _ := tail(r.lat)
	return map[string]float64{
		"setup_s":          median(r.setup),
		"max_rss_mb":       maxRSSMiB(),
		"throughput_per_s": ratio(r.work, r.workSecs),
		"latency_p50_ms":   medianSorted(r.lat),
		"latency_tail_ms":  tailV,
	}
}

// cpuSeconds is the CPU time, user and system, the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// threadCPUNanos is the CPU time the calling OS thread has used, in
// nanoseconds. The caller must hold runtime.LockOSThread across the
// reads it subtracts. Like cpuSeconds, on a guest kernel that accounts
// steal time it leaves out the time a shared host's hypervisor steals,
// which wall time does not.
func threadCPUNanos() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-paper, serve-mixed, migrate-live, or sim-mshr by hand")
	seed := fs.Int64("seed", 0, "input seed (0 is the default seed, 1009 the held-out seed)")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookup(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	res, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res.e2e = res.endToEndMetrics()
	out := verdict{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	var tres *result
	if *traced == 1 {
		e.tr = newTracer(dir)
		tres, err = w.run(e)
		if err == nil {
			err = e.tr.finish(tres)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s traced: %v\n", w.name, err)
			return 1
		}
		tres.e2e = tres.endToEndMetrics()
		out.Correct = out.Correct && tres.correct()
		out.Attempted += tres.attempted
		out.Failed += tres.failed
		layers, err := perLayerValues(tres, res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, d := range perLayer {
			out.Metrics[d.name] = metricValue{layers[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			out.Metrics[d.name] = metricValue{res.e2e[d.name], d.unit}
		}
	}

	report(stdout, res, tres)
	if err := writeResult(dir, w.name, *seed, out, res, tres); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable part of a run: checks, the named
// metrics, and the end-to-end metrics of each pass.
func report(w io.Writer, res, traced *result) {
	passes := []*result{res}
	labels := []string{"untraced"}
	if traced != nil {
		passes = append(passes, traced)
		labels = append(labels, "traced")
	}
	for i, p := range passes {
		fmt.Fprintf(w, "== %s pass: %d attempted, %d failed\n", labels[i], p.attempted, p.failed)
		for _, c := range p.checks {
			status := "PASS"
			if !c.OK {
				status = "FAIL"
			}
			fmt.Fprintf(w, "  check %s: %s (%s)\n", status, c.Name, c.Detail)
		}
		for _, m := range p.notes {
			fmt.Fprintf(w, "  %-22s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
		_, q := tail(p.lat)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-22s %14.6g %s\n", d.name, p.e2e[d.name], d.unit)
		}
		fmt.Fprintf(w, "  latency samples n=%d, tail at p%.4g\n", len(p.lat), q*100)
	}
	if traced != nil {
		for _, kind := range []string{"cpu", "mutex"} {
			fmt.Fprintf(w, "== %s profile by module (share of samples)\n", kind)
			for _, b := range traced.prof[kind] {
				if b.v >= 0.1 {
					fmt.Fprintf(w, "  %-16s %6.2f%%\n", b.k, b.v)
				}
			}
		}
	}
}

type kv struct {
	k string
	v float64
}

// writeResult stores everything a run measured, for later comparison.
func writeResult(dir, name string, seed int64, out verdict, res, traced *result) error {
	type pass struct {
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Checks    []checkResult      `json:"checks"`
		Named     []namedMetric      `json:"named_metrics"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		Samples   int                `json:"latency_samples"`
		Extra     map[string]any     `json:"extra"`
	}
	mk := func(r *result) *pass {
		if r == nil {
			return nil
		}
		return &pass{r.attempted, r.failed, r.checks, r.notes, r.e2e, len(r.lat), r.extra}
	}
	doc := struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Verdict  verdict `json:"verdict"`
		Untraced *pass   `json:"untraced"`
		Traced   *pass   `json:"traced,omitempty"`
	}{Workload: name, Seed: seed, Verdict: out, Untraced: mk(res), Traced: mk(traced)}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}
