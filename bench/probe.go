package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// mutexRate samples one in mutexRate contention events in traced runs.
const mutexRate = 10

// doSpanEvery samples one Server.Do span in doSpanEvery per client, so
// the in-memory span buffer stays small on million-request runs.
const doSpanEvery = 64

// tracer keeps spans in memory and writes them, with the profiles, when
// the traced pass ends. A nil tracer records nothing.
type tracer struct {
	dir string
	t0  time.Time

	mu    sync.Mutex
	next  int64
	spans []spanRecord
}

type spanRecord struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Name    string  `json:"name"`
	Attr    string  `json:"attr,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newTracer(dir string) *tracer { return &tracer{dir: dir, t0: time.Now()} }

// open reserves a span id, so children can name their parent before the
// parent's span is closed.
func (t *tracer) open() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) close(id, parent int64, name, attr string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRecord{ID: id, Parent: parent, Name: name, Attr: attr,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3, EndUS: float64(end.Sub(t.t0).Nanoseconds()) / 1e3})
}

// finish writes the spans and buckets the profiles of the traced pass
// into res.
func (t *tracer) finish(res *result) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(t.dir, "spans.json"), data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.spans = len(spans)
	res.prof = map[string][]kv{}
	for _, kind := range []string{"cpu", "mutex"} {
		b, err := bucketProfile(filepath.Join(t.dir, kind+".pprof"), kind == "mutex")
		if err != nil {
			return fmt.Errorf("%s profile: %w", kind, err)
		}
		res.prof[kind] = b
	}
	return nil
}

// probe snapshots runtime metrics around a timed phase and, when
// traced, runs the CPU and mutex profilers over exactly that phase.
type probe struct {
	t0      time.Time
	before  []metrics.Sample
	cpuFile *os.File
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

// timedDelta is what the runtime did during the timed phase.
type timedDelta struct {
	wall       float64 // seconds
	gcCPU      float64 // seconds
	mutexWait  float64 // seconds
	allocObjs  float64
	allocBytes float64
	schedP99US float64
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func (p *probe) begin(tr *tracer) {
	if tr != nil {
		f, err := os.Create(filepath.Join(tr.dir, "cpu.pprof"))
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				_ = f.Close() // nothing was written; the error below reports the failure
				f = nil
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		}
		p.cpuFile = f
		runtime.SetMutexProfileFraction(mutexRate)
	}
	p.before = readRuntime()
	p.t0 = time.Now()
}

func (p *probe) end(tr *tracer) timedDelta {
	wall := time.Since(p.t0).Seconds()
	after := readRuntime()
	if tr != nil {
		runtime.SetMutexProfileFraction(0)
		if p.cpuFile != nil {
			pprof.StopCPUProfile()
			if err := p.cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
			}
			p.cpuFile = nil
		}
		if f, err := os.Create(filepath.Join(tr.dir, "mutex.pprof")); err != nil {
			fmt.Fprintf(os.Stderr, "bench: mutex profile: %v\n", err)
		} else {
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "bench: mutex profile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: mutex profile: %v\n", err)
			}
		}
	}
	scalar := func(i int) float64 {
		a, b := p.before[i].Value, after[i].Value
		if a.Kind() == metrics.KindUint64 {
			return float64(b.Uint64() - a.Uint64())
		}
		return b.Float64() - a.Float64()
	}
	return timedDelta{
		wall:       wall,
		gcCPU:      scalar(0),
		mutexWait:  scalar(1),
		allocObjs:  scalar(2),
		allocBytes: scalar(3),
		schedP99US: histQuantile(p.before[4].Value.Float64Histogram(), after[4].Value.Float64Histogram(), 0.99) * 1e6,
	}
}

// histQuantile returns the q-quantile of the events added between two
// snapshots of a runtime histogram, interpolating linearly inside the
// bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := after.Buckets[i], after.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return after.Buckets[len(after.Buckets)-1]
}

// cpuModules are the buckets of the profile attribution: the
// repository's packages by name, the standard-library code they lean on,
// and the runtime split into allocation, garbage collection and the rest.
var cpuModules = []string{
	"sim", "container_heap", "gpu", "xbar", "cache", "pagecache", "secsim", "dram", "cxlmem", "trace", "system",
	"securemem", "serve", "migrate", "crash", "tenant",
	"cryptoeng", "maclib", "bmt", "counters", "crypto_aes", "crypto_sha256", "crypto_other", "hash_crc32",
	"sync", "runtime_malloc", "runtime_gc", "runtime_other", "bench", "other",
}

var (
	mallocFuncs = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.nextFreeFast", "runtime.heapSetType",
		"runtime.(*mspan).writeHeapBits",
		"runtime.(*mspan).nextFreeIndex", "runtime.nextFreeIndex", "runtime.makemap",
		"runtime.convT", "runtime.(*pageAlloc)", "runtime.(*fixalloc)", "runtime.sysAlloc", "runtime.sysUsed"}
	gcFuncs = []string{"runtime.gc", "runtime.scan", "runtime.greyobject", "runtime.findObject", "runtime.markBits",
		"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.markroot", "runtime.sweep", "runtime.(*sweepLocked)",
		"runtime.(*mspan).sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf", "runtime.typePointers",
		"runtime.(*mspan).typePointers", "runtime.(*typePointers)", "runtime.spanOf", "runtime.pageIndexOf",
		"runtime.(*mspan).markBitsForIndex", "runtime.(*mspan).base", "runtime.heapBitsForAddr", "runtime.(*lfstack)",
		"runtime.(*mspan).heapBits", "runtime.(*scavenger", "runtime.(*gcControllerState)", "runtime.(*mspan).objIndex"}
)

// helperFuncs copy, clear or compare memory, or look up maps, on behalf
// of their caller; CPU samples in them are charged to the first frame
// above them.
var helperFuncs = []string{"runtime.memmove", "runtime.memclrNoHeapPointers", "runtime.memequal",
	"runtime.typedmemmove", "runtime.typedslicecopy", "runtime.mapaccess", "runtime.mapassign",
	"runtime.mapdelete", "internal/runtime/maps."}

func hasPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// moduleOf maps a profiled function name to its bucket.
func moduleOf(fn string) string {
	const repo = "github.com/salus-sim/salus/"
	switch {
	case strings.HasPrefix(fn, repo+"internal/"):
		rest := strings.TrimPrefix(fn, repo+"internal/")
		rest = strings.TrimPrefix(rest, "security/")
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, repo+"bench"):
		return "bench"
	case strings.HasPrefix(fn, "container/heap."):
		return "container_heap"
	case hasPrefix(fn, []string{"crypto/aes.", "crypto/internal/fips140/aes", "crypto/cipher."}):
		return "crypto_aes"
	case hasPrefix(fn, []string{"crypto/sha256.", "crypto/internal/fips140/sha256."}):
		return "crypto_sha256"
	case strings.HasPrefix(fn, "crypto/"):
		return "crypto_other"
	case strings.HasPrefix(fn, "hash/crc32."):
		return "hash_crc32"
	case hasPrefix(fn, []string{"sync.", "sync/atomic.", "internal/sync."}):
		return "sync"
	case hasPrefix(fn, mallocFuncs):
		return "runtime_malloc"
	case hasPrefix(fn, gcFuncs):
		return "runtime_gc"
	case hasPrefix(fn, []string{"runtime.", "internal/runtime/", "runtime/internal/"}):
		return "runtime_other"
	}
	return "other"
}

// bucketProfile reads a pprof profile and returns each module's share
// of the last sample value (CPU time, or contention delay), in percent,
// for every module in cpuModules order. CPU samples are charged to the
// leaf function; samples in helperFuncs go to their caller. Mutex samples
// are charged to the first frame outside sync and the runtime: the code
// that held the contended lock.
func bucketProfile(path string, byCaller bool) ([]kv, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		mod := "other"
		for _, fn := range s.stack {
			mod = moduleOf(fn)
			if byCaller && (mod == "sync" || strings.HasPrefix(mod, "runtime_")) {
				continue
			}
			if !byCaller && hasPrefix(fn, helperFuncs) {
				continue
			}
			break
		}
		sums[mod] += v
		total += v
	}
	out := make([]kv, 0, len(cpuModules))
	for _, m := range cpuModules {
		share := 0.0
		if total > 0 {
			share = 100 * sums[m] / total
		}
		out = append(out, kv{m, share})
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution needs: each
// sample's values and its stack as function names, leaf first (inlined
// frames included).
type profile struct {
	samples []profSample
}

type profSample struct {
	values []int64
	stack  []string
}

// parseProfile decodes a gzipped profile.proto message with the
// standard library only.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		ps := profSample{values: s.values}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v, b == nil) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// walkProto calls fn for every field of a protobuf message: varints as
// v with b == nil, length-delimited fields as b. Fixed-width fields are
// skipped; the profile format does not use them for anything read here.
func walkProto(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", field)
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", field)
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", field)
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", field)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
