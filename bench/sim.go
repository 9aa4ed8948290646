package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/salus-sim/salus/internal/experiments"
	"github.com/salus-sim/salus/internal/metrics"
	"github.com/salus-sim/salus/internal/secsim"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/system"
	"github.com/salus-sim/salus/internal/trace"
)

// seedStride spaces the per-seed trace PRNG streams, as
// experiments.SeedStability does; seed 0 reproduces the suite exactly.
const seedStride = 7919

// simCase is one system.Run of a workload's round; label names the
// protection model in per-layer metric names.
type simCase struct {
	label string
	opts  system.Options
}

// simOut is one case of a round: the statistics of its first
// repetition, the host CPU time of every repetition, and whether a later
// repetition's statistics differed from the first.
type simOut struct {
	simCase
	run   *stats.Run
	secs  []float64
	err   error
	drift bool
}

// A case repeats until it has run for minCaseSecs of host time, at most
// maxCaseReps times: short runs are the noisiest, and their median is
// what the latency metrics take.
const (
	minCaseSecs = 0.25
	maxCaseReps = 3
)

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func shifted(w trace.Params, seed int64) trace.Params {
	w.Seed += seed * seedStride
	return w
}

// paperPlan is the sim-paper round over s (experiments.Default()):
// every suite workload under the no-security, conventional, Salus and
// conventional-without-movement-overhead models — the runs behind
// Figs. 3, 10 and 11, with the options experiments.Runner uses.
func paperPlan(s experiments.Settings, seed int64) []simCase {
	var plan []simCase
	for _, w := range s.Workloads {
		base := system.Options{Cfg: s.Cfg, Workload: shifted(w, seed), MaxAccesses: s.MaxAccesses, CycleLimit: s.CycleLimit}
		none, conv, sal, noMove := base, base, base, base
		none.Model = system.ModelNone
		conv.Model = system.ModelBaseline
		sal.Model = system.ModelSalus
		noMove.Model = system.ModelBaseline
		noMove.TuneBaseline = func(b *secsim.Baseline) { b.SkipRelocationWork = true }
		plan = append(plan, simCase{"none", none}, simCase{"baseline", conv}, simCase{"salus", sal}, simCase{"nomove", noMove})
	}
	return plan
}

// mshrPlan is the sim-mshr round: the counter-organisation study's
// monolithic, split and Salus runs on nw and btree at the quick access
// count. Only the monolithic runs fill the metadata MSHRs.
func mshrPlan(seed int64) []simCase {
	s := experiments.Quick()
	var plan []simCase
	for _, name := range []string{"nw", "btree"} {
		w, ok := trace.ByName(name)
		if !ok {
			panic("bench: suite lacks workload " + name)
		}
		base := system.Options{Cfg: s.Cfg, Workload: shifted(w, seed), MaxAccesses: s.MaxAccesses, CycleLimit: s.CycleLimit}
		mono, split, sal := base, base, base
		mono.Model = system.ModelBaseline
		mono.TuneBaseline = func(b *secsim.Baseline) { b.SetMonolithicCounters(true) }
		split.Model = system.ModelBaseline
		sal.Model = system.ModelSalus
		plan = append(plan, simCase{"mono", mono}, simCase{"split", split}, simCase{"salus", sal})
	}
	return plan
}

// runSim measures one simulator workload. A case's host time is the
// process's CPU time (user and system, all threads, so the collector's
// parallel work counts) across its system.Run call: the simulator is
// single-threaded and CPU-bound, and CPU time leaves out the time a
// shared host's hypervisor steals, which wall time does not.
//
// Set-up builds every machine of
// the round over a one-access-per-SM stream, which costs what
// system.Run spends constructing engines, trees and caches. The timed
// phase then runs whole rounds, starting another only while the last
// one still fits in the time budget, so every run sees the same work;
// a round longer than the budget still runs to its end.
func runSim(e *env, plan []simCase, check func(*result, []simOut)) (*result, error) {
	res := newResult()
	res.busy = 1
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the last repetition's garbage is not charged to this one
		cpu0 := cpuSeconds()
		for _, c := range plan {
			o := c.opts
			o.MaxAccesses = o.Cfg.GPU.NumSMs
			if _, err := system.Run(o); err != nil {
				return nil, fmt.Errorf("set-up %s/%s: %w", o.Workload.Name, c.label, err)
			}
		}
		res.setup = append(res.setup, cpuSeconds()-cpu0)
	}

	e.begin()
	start := time.Now()
	var rounds [][]simOut
	for {
		roundStart := time.Now()
		round := e.tr.open()
		var outs []simOut
		for _, c := range plan {
			o := simOut{simCase: c}
			for len(o.secs) < maxCaseReps && sum(o.secs) < minCaseSecs {
				// Every repetition starts from a collected heap, so one
				// run's garbage is not charged to the next.
				runtime.GC()
				sp := e.tr.open()
				t0, cpu0 := time.Now(), cpuSeconds()
				run, err := system.Run(c.opts)
				t1, cpu1 := time.Now(), cpuSeconds()
				e.tr.close(sp, round, "system.Run", c.opts.Workload.Name+"/"+c.label, t0, t1)
				res.attempted++
				if err != nil {
					res.failed++
					o.err = err
					break
				}
				o.secs = append(o.secs, cpu1-cpu0)
				if o.run == nil {
					o.run = run
				} else if runDigest(run) != runDigest(o.run) {
					o.drift = true
				}
			}
			outs = append(outs, o)
		}
		e.tr.close(round, 0, "round", fmt.Sprintf("%d", len(rounds)), roundStart, time.Now())
		rounds = append(rounds, outs)
		if time.Since(start)+time.Since(roundStart) > e.seconds {
			break
		}
	}
	res.timed = e.end()

	// Each case counts once, at its median host time over repetitions and
	// rounds: the rate is one round's simulated requests over the
	// round's typical duration, whatever number of repetitions fitted.
	reqs := map[string]float64{}
	secs := map[string]float64{}
	for i, c := range plan {
		var xs []float64
		for _, outs := range rounds {
			xs = append(xs, outs[i].secs...)
		}
		t := median(xs)
		res.lat = append(res.lat, t*1e3)
		if r := rounds[0][i].run; r != nil {
			reqs[c.label] += float64(r.MemRequests)
			secs[c.label] += t
		}
	}
	for _, label := range simLabels {
		if secs[label] > 0 {
			res.work += reqs[label]
			res.workSecs += secs[label]
			res.layer["system.req_per_s."+label] = reqs[label] / secs[label]
		}
	}

	for _, outs := range rounds {
		for _, o := range outs {
			if o.err != nil {
				res.check("run "+o.opts.Workload.Name+"/"+o.label+" finishes inside its cycle limit", false, "%v", o.err)
			}
		}
	}
	if res.failed > 0 {
		return res, nil
	}
	res.check("every run finishes inside its cycle limit", true, "%d runs", res.attempted)
	first := rounds[0]
	checkInstructions(res, first)
	check(res, first)
	simLayers(res, first)
	recordDigests(res, rounds)
	res.note("sim_accesses_per_s", res.work/res.workSecs, "1/s",
		fmt.Sprintf("simulated memory requests per host CPU second inside system.Run: %d runs, %d rounds of %d cases", res.attempted, len(rounds), len(plan)))
	return res, nil
}

// checkInstructions asserts every model retires the same instructions
// on a trace: the streams are identical, only the memory system differs.
func checkInstructions(res *result, outs []simOut) {
	want := map[string]uint64{}
	ok := true
	for _, o := range outs {
		name := o.opts.Workload.Name
		if n, seen := want[name]; seen && n != o.run.Instructions {
			ok = false
			res.check("identical instruction counts on "+name, false, "%s retired %d, expected %d", o.label, o.run.Instructions, n)
		}
		want[name] = o.run.Instructions
	}
	if ok {
		res.check("every model retires identical instructions per trace", true, "%d traces", len(want))
	}
}

// byLabel returns the runs of one model in plan (workload) order.
func byLabel(outs []simOut, label string) []*stats.Run {
	var runs []*stats.Run
	for _, o := range outs {
		if o.label == label {
			runs = append(runs, o.run)
		}
	}
	return runs
}

func ipcGeomean(runs []*stats.Run) float64 {
	var ipcs []float64
	for _, r := range runs {
		ipcs = append(ipcs, r.IPC())
	}
	gm, err := metrics.Geomean(ipcs)
	if err != nil {
		return 0
	}
	return gm
}

// checkPaper computes Figs. 3, 10 and 11 from the round and asserts the
// paper's qualitative results: Salus beats conventional security on
// geomean IPC and moves less security metadata.
func checkPaper(res *result, outs []simOut) {
	none, base, sal, noMove := byLabel(outs, "none"), byLabel(outs, "baseline"), byLabel(outs, "salus"), byLabel(outs, "nomove")
	f3, err3 := fig3Slowdown(base, noMove)
	f10, err10 := fig10GainPct(none, base, sal)
	f11, err11 := fig11Traffic(base, sal)
	for _, err := range []error{err3, err10, err11} {
		if err != nil {
			res.check("figures computable", false, "%v", err)
			return
		}
	}
	gs, gb := ipcGeomean(sal), ipcGeomean(base)
	res.check("Salus geomean IPC beats conventional", gs > gb, "salus %.4f vs conventional %.4f", gs, gb)
	res.check("Fig. 11 security traffic stays below conventional", f11 < 1, "normalised traffic %.4f", f11)
	res.layer["experiments.fig3_slowdown"] = f3
	res.layer["experiments.fig10_gain_pct"] = f10
	res.layer["experiments.fig11_traffic"] = f11
	res.note("fig3_slowdown_err", fidelityErr(f3, paperFig3Slowdown), "x", fmt.Sprintf("simulated %.4f vs paper %.2f", f3, paperFig3Slowdown))
	res.note("fig10_gain_err_pp", fidelityErr(f10, paperFig10GainPct), "pp", fmt.Sprintf("simulated %.2f%% vs paper %.2f%%", f10, paperFig10GainPct))
	res.note("fig11_traffic_err", fidelityErr(f11, paperFig11Traffic), "ratio", fmt.Sprintf("simulated %.4f vs paper %.4f", f11, paperFig11Traffic))
}

// checkMSHR asserts the counter-organisation ordering on every trace:
// monolithic counters lose to split counters, which lose to Salus.
func checkMSHR(res *result, outs []simOut) {
	ipc := map[string]map[string]float64{}
	var traces []string
	for _, o := range outs {
		name := o.opts.Workload.Name
		if ipc[name] == nil {
			ipc[name] = map[string]float64{}
			traces = append(traces, name)
		}
		ipc[name][o.label] = o.run.IPC()
	}
	for _, name := range traces {
		m := ipc[name]
		res.check("mono < split < salus IPC on "+name, m["mono"] < m["split"] && m["split"] < m["salus"],
			"mono %.4f, split %.4f, salus %.4f", m["mono"], m["split"], m["salus"])
	}
}

// simLayers records the simulated statistics of the round per model.
// They are exact functions of the inputs, so a pure-speed change must
// leave every one of them unchanged.
func simLayers(res *result, outs []simOut) {
	var labels []string
	seen := map[string]bool{}
	for _, o := range outs {
		if !seen[o.label] {
			seen[o.label] = true
			labels = append(labels, o.label)
		}
	}
	// Every run of a round simulates the same machine.
	channels := float64(outs[0].opts.Cfg.Memory.DeviceChannels)
	for _, label := range labels {
		runs := byLabel(outs, label)
		var cycles, cxlBusy, devBusy, secCXL, secDev, reenc float64
		for _, r := range runs {
			cycles += float64(r.Cycles)
			cxlBusy += float64(r.CXLBusyCycles)
			devBusy += float64(r.DeviceBusyCycles)
			secCXL += float64(r.Traffic.SecurityBytes(stats.CXL))
			secDev += float64(r.Traffic.SecurityBytes(stats.Device))
			reenc += float64(r.Ops.ReEncryptions)
		}
		res.layer["sim.cycles."+label] = cycles
		res.layer["gpu.ipc_geomean."+label] = ipcGeomean(runs)
		res.layer["cxlmem.busy_frac."+label] = cxlBusy / cycles
		res.layer["dram.busy_frac."+label] = devBusy / (cycles * channels)
		res.layer["secsim.sec_bytes_cxl."+label] = secCXL
		res.layer["secsim.sec_bytes_device."+label] = secDev
		res.layer["secsim.reenc_sectors."+label] = reenc
	}
	sal := byLabel(outs, "salus")
	var lazy, migr, evict float64
	hits := map[string]float64{}
	for _, r := range sal {
		lazy += float64(r.Ops.MACFetchesLazy)
		migr += float64(r.Ops.PagesMigratedIn)
		evict += float64(r.Ops.PagesEvicted)
		for k, v := range r.CacheHitRates {
			hits[k] += v / float64(len(sal))
		}
	}
	res.layer["secsim.lazy_mac_fetches"] = lazy
	res.layer["pagecache.migrations"] = migr
	res.layer["pagecache.evictions"] = evict
	for _, k := range []string{"device.counter", "device.mac", "device.bmt", "cxl.bmt"} {
		res.layer["secsim.hit."+strings.ReplaceAll(k, ".", "_")] = hits[k]
	}
}

// runDigest fingerprints every simulated statistic of a run (fmt prints
// unexported fields and sorts map keys, so the rendering is canonical).
func runDigest(r *stats.Run) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *r)))
	return hex.EncodeToString(sum[:8])
}

// recordDigests stores the digest of every case of the first round plus
// one digest over all of them, and counts cases whose statistics changed
// between repetitions or rounds of the same process. Nothing gates on
// these: monolithic runs drift because secsim's baseline ranges over a
// map.
func recordDigests(res *result, rounds [][]simOut) {
	all := sha256.New()
	per := map[string]string{}
	drift := 0
	for i, o := range rounds[0] {
		d := runDigest(o.run)
		per[o.opts.Workload.Name+"/"+o.label] = d
		all.Write([]byte(d))
		changed := o.drift
		for _, later := range rounds[1:] {
			changed = changed || later[i].drift || runDigest(later[i].run) != d
		}
		if changed {
			drift++
		}
	}
	res.extra["run_digests"] = per
	res.extra["sim_digest"] = hex.EncodeToString(all.Sum(nil)[:16])
	res.extra["cases_drifting_within_process"] = drift
}
