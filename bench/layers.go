package main

import (
	"fmt"
	"runtime"
)

// simLabels are the protection-model labels of the simulator runs:
// sim-paper runs none, baseline, salus and nomove (conventional without
// data-movement overheads); sim-mshr runs mono (monolithic counters),
// split (the conventional model's split counters) and salus.
var simLabels = []string{"none", "baseline", "salus", "nomove", "mono", "split"}

// perLayer lists the metrics a --trace 1 run reports, in BENCHMARK.json
// order. Every workload reports all of them; a layer the workload does
// not exercise reads 0. None has a time unit that could read 0: layer
// timings are given as rates or as shares of a measured total.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit})
		}
	}
	for _, m := range simLabels {
		add("1/s", "system.req_per_s."+m)
	}
	for _, m := range simLabels {
		add("cycles", "sim.cycles."+m)
		add("ipc", "gpu.ipc_geomean."+m)
		add("frac", "cxlmem.busy_frac."+m, "dram.busy_frac."+m)
		add("B", "secsim.sec_bytes_cxl."+m, "secsim.sec_bytes_device."+m)
		add("count", "secsim.reenc_sectors."+m)
	}
	add("frac", "secsim.hit.device_counter", "secsim.hit.device_mac", "secsim.hit.device_bmt", "secsim.hit.cxl_bmt")
	add("count", "secsim.lazy_mac_fetches", "pagecache.migrations", "pagecache.evictions")
	add("x", "experiments.fig3_slowdown")
	add("pp", "experiments.fig10_gain_pct")
	add("ratio", "experiments.fig11_traffic")

	add("count", "serve.calls", "serve.refused", "serve.retries")
	add("cycles", "serve.sim_p99_cycles")
	add("frac", "securemem.device_hit_ratio")
	add("1/kop", "securemem.migrations_in_per_kop", "securemem.evictions_per_kop")
	add("1/op", "securemem.collapse_reenc_per_op", "securemem.lazy_mac_per_op")
	add("frac", "securemem.clean_chunk_skip_ratio")
	add("1/op", "securemem.mac_verifies_per_op", "securemem.bmt_verifies_per_op", "securemem.bmt_updates_per_op")

	add("MB/s", "migrate.mb_per_s")
	add("frac", "migrate.start_share", "migrate.sync_share", "migrate.cutover_share")
	add("count", "migrate.rounds", "migrate.chunks_sent")
	add("ratio", "migrate.stream_amplification")
	add("count", "migrate.rejected_records")

	add("%", "runtime.gc_cpu_pct")
	add("1/op", "runtime.allocs_per_op")
	add("B/op", "runtime.alloc_bytes_per_op")
	add("us", "runtime.sched_p99_us")
	add("frac", "runtime.mutex_wait_share")
	for _, m := range cpuModules {
		add("%", "cpu_pct."+m)
	}
	add("%", "trace.overhead_pct")
	add("count", "trace.spans")
	return d
}()

// perLayerValues assembles every per-layer metric from the traced pass,
// with the untraced pass as the base of the tracing overhead.
func perLayerValues(traced, untraced *result) (map[string]float64, error) {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	for k, x := range traced.layer {
		if _, ok := v[k]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
		v[k] = x
	}
	t := traced.timed
	if traced.work > 0 {
		v["runtime.allocs_per_op"] = t.allocObjs / traced.work
		v["runtime.alloc_bytes_per_op"] = t.allocBytes / traced.work
	}
	v["runtime.gc_cpu_pct"] = 100 * t.gcCPU / (t.wall * float64(runtime.GOMAXPROCS(0)))
	v["runtime.sched_p99_us"] = t.schedP99US
	v["runtime.mutex_wait_share"] = t.mutexWait / (t.wall * float64(traced.busy))
	for _, b := range traced.prof["cpu"] {
		v["cpu_pct."+b.k] = b.v
	}
	v["trace.overhead_pct"] = 100 * (ratio(untraced.e2e["throughput_per_s"], traced.e2e["throughput_per_s"]) - 1)
	v["trace.spans"] = float64(traced.spans)
	return v, nil
}
