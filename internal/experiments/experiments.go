// Package experiments regenerates every table and figure of the paper's
// evaluation: the motivation slowdown (Fig. 3), the headline IPC comparison
// (Fig. 10), security traffic (Fig. 11), bandwidth utilisation (Fig. 12),
// the CXL-bandwidth sensitivity sweep (Fig. 13), the device-footprint
// sensitivity sweep (Fig. 14), the configuration tables (I and II), and an
// ablation study over Salus's individual mechanisms.
//
// A Runner memoises simulation runs, so figures that share configurations
// (10, 11, and 12 all use the default suite) reuse the same simulations.
package experiments

import (
	"fmt"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/metrics"
	"github.com/salus-sim/salus/internal/secsim"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/system"
	"github.com/salus-sim/salus/internal/trace"
)

// Short aliases for the tuned engine types.
type (
	secsimBaseline = secsim.Baseline
	secsimSalus    = secsim.Salus
)

// Settings size the experiment campaign.
type Settings struct {
	Cfg         config.Config
	Workloads   []trace.Params
	MaxAccesses int    // per run, split over SMs
	CycleLimit  uint64 // safety net
}

// Default returns the settings used by the bench harness: the full
// 14-workload suite on the paper's configuration, scaled to finish in
// minutes.
func Default() Settings {
	return Settings{
		Cfg:         config.Default(),
		Workloads:   trace.Suite(),
		MaxAccesses: 60000,
		CycleLimit:  2_000_000_000,
	}
}

// Quick returns reduced settings for unit tests and smoke runs: the same
// machine as Default (shrinking the GPU would change the latency-hiding
// regime and distort the model comparison) but a 6-workload subset and
// shorter streams.
func Quick() Settings {
	cfg := config.Default()
	var subset []trace.Params
	for _, name := range []string{"backprop", "bfs", "btree", "nw", "sgemm", "stencil"} {
		p, ok := trace.ByName(name)
		if !ok {
			panic("experiments: missing suite workload " + name)
		}
		subset = append(subset, p)
	}
	return Settings{
		Cfg:         cfg,
		Workloads:   subset,
		MaxAccesses: 20000,
		CycleLimit:  500_000_000,
	}
}

// variant distinguishes memoised run flavours beyond the model.
type variant int

const (
	vPlain variant = iota
	vNoMoveOverhead
	vAblCounters // interleaving-friendly counters only
	vAblCollapse // + collapsed checkpointed counters
	vAblFetch    // + fetch-on-access
)

type runKey struct {
	workload string
	model    system.Model
	variant  variant
	cxlNum   uint64
	cxlDen   uint64
	ratio    float64
	tag      string // extra discriminator for config sweeps beyond ratio/bandwidth
}

// Runner executes and memoises simulation runs.
type Runner struct {
	Settings Settings
	cache    map[runKey]*stats.Run
	// Progress, when non-nil, receives a line per completed simulation.
	Progress func(string)
}

// NewRunner builds a Runner over the given settings.
func NewRunner(s Settings) *Runner {
	return &Runner{Settings: s, cache: make(map[runKey]*stats.Run)}
}

func (r *Runner) run(w trace.Params, model system.Model, v variant, cfg config.Config) (*stats.Run, error) {
	return r.runTagged(w, model, v, cfg, "")
}

// runWithKey runs a plain-variant simulation under a modified config,
// using tag to keep it distinct in the memoisation cache.
func (r *Runner) runWithKey(w trace.Params, model system.Model, cfg config.Config, tag string) (*stats.Run, error) {
	return r.runTagged(w, model, vPlain, cfg, tag)
}

func (r *Runner) runTagged(w trace.Params, model system.Model, v variant, cfg config.Config, tag string) (*stats.Run, error) {
	key := runKey{
		workload: w.Name, model: model, variant: v,
		cxlNum: cfg.Memory.CXLRatioNum, cxlDen: cfg.Memory.CXLRatioDen,
		ratio: cfg.Memory.DeviceFootprintRatio, tag: tag,
	}
	if got, ok := r.cache[key]; ok {
		return got, nil
	}
	opts := system.Options{
		Cfg:         cfg,
		Workload:    w,
		Model:       model,
		MaxAccesses: r.Settings.MaxAccesses,
		CycleLimit:  r.Settings.CycleLimit,
	}
	switch v {
	case vNoMoveOverhead:
		opts.TuneBaseline = func(b *secsimBaseline) { b.SkipRelocationWork = true }
	case vAblCounters:
		opts.Tune = func(s *secsimSalus) { s.CollapseCounters, s.FetchOnAccess, s.DirtyTracking = false, false, false }
	case vAblCollapse:
		opts.Tune = func(s *secsimSalus) { s.FetchOnAccess, s.DirtyTracking = false, false }
	case vAblFetch:
		opts.Tune = func(s *secsimSalus) { s.DirtyTracking = false }
	}
	out, err := system.Run(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", w.Name, model, err)
	}
	r.cache[key] = out
	if r.Progress != nil {
		r.Progress(fmt.Sprintf("done %-12s %-9s v=%d ipc=%.4f", w.Name, model, v, out.IPC()))
	}
	return out, nil
}

// suiteRuns executes the whole workload suite for one (model, variant)
// under cfg, returning runs in workload order.
func (r *Runner) suiteRuns(model system.Model, v variant, cfg config.Config) ([]*stats.Run, error) {
	var out []*stats.Run
	for _, w := range r.Settings.Workloads {
		run, err := r.run(w, model, v, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// FigResult is one regenerated figure: a table of per-workload rows plus
// the summary statistics the paper quotes.
type FigResult struct {
	Name    string
	Table   stats.Table
	Summary map[string]float64
}

// String renders the figure result.
func (f *FigResult) String() string {
	s := "== " + f.Name + " ==\n" + f.Table.String()
	for _, k := range sortedKeys(f.Summary) {
		s += fmt.Sprintf("%s: %.4g\n", k, f.Summary[k])
	}
	return s
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	//salus-lint:ignore simclock the keys are sorted below before any use
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Fig3 regenerates the motivation result: the slowdown of conventional
// security with dynamic page migration relative to a hypothetical system
// whose security has no data-movement overheads. The paper reports 2.04×.
func (r *Runner) Fig3() (*FigResult, error) {
	cfg := r.Settings.Cfg
	full, err := r.suiteRuns(system.ModelBaseline, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	noMove, err := r.suiteRuns(system.ModelBaseline, vNoMoveOverhead, cfg)
	if err != nil {
		return nil, err
	}
	res := &FigResult{Name: "Fig. 3 — slowdown of location-coupled security under page migration", Summary: map[string]float64{}}
	res.Table.Header = []string{"workload", "slowdown (conventional / no-movement-overhead)"}
	var slowdowns []float64
	for i := range full {
		sd := float64(full[i].Cycles) / float64(noMove[i].Cycles)
		slowdowns = append(slowdowns, sd)
		res.Table.AddRow(full[i].Workload, fmt.Sprintf("%.3f", sd))
	}
	gm, err := metrics.Geomean(slowdowns)
	if err != nil {
		return nil, err
	}
	res.Summary["geomean slowdown (paper: 2.04)"] = gm
	res.Summary["max slowdown"] = metrics.Max(slowdowns)
	return res, nil
}

// Fig10 regenerates the headline result: IPC of the conventional model and
// Salus, both normalised to a no-security system. The paper reports a
// geomean improvement of 29.94% (up to 190.43%).
func (r *Runner) Fig10() (*FigResult, error) {
	cfg := r.Settings.Cfg
	return r.fig10At(cfg, "Fig. 10 — normalised IPC (conventional vs Salus)")
}

func (r *Runner) fig10At(cfg config.Config, name string) (*FigResult, error) {
	none, err := r.suiteRuns(system.ModelNone, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	base, err := r.suiteRuns(system.ModelBaseline, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	sal, err := r.suiteRuns(system.ModelSalus, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	res := &FigResult{Name: name, Summary: map[string]float64{}}
	res.Table.Header = []string{"workload", "conventional", "salus", "salus/conventional"}
	var improvements []float64
	for i := range none {
		bn := base[i].IPC() / none[i].IPC()
		sn := sal[i].IPC() / none[i].IPC()
		improvements = append(improvements, sn/bn)
		res.Table.AddRow(none[i].Workload,
			fmt.Sprintf("%.3f", bn), fmt.Sprintf("%.3f", sn), fmt.Sprintf("%.3f", sn/bn))
	}
	gm, err := metrics.Geomean(improvements)
	if err != nil {
		return nil, err
	}
	res.Summary["geomean improvement %% (paper: 29.94)"] = metrics.ImprovementPct(gm)
	res.Summary["max improvement %% (paper: 190.43)"] = metrics.ImprovementPct(metrics.Max(improvements))
	return res, nil
}

// Fig11 regenerates the security-traffic comparison: bytes of security
// metadata moved by Salus, normalised to the conventional model. The paper
// reports a mean of 47.79% (i.e. a 52.03% reduction), as low as 17.71%.
func (r *Runner) Fig11() (*FigResult, error) {
	cfg := r.Settings.Cfg
	base, err := r.suiteRuns(system.ModelBaseline, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	sal, err := r.suiteRuns(system.ModelSalus, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	res := &FigResult{Name: "Fig. 11 — security traffic normalised to conventional", Summary: map[string]float64{}}
	res.Table.Header = []string{"workload", "conventional B", "salus B", "normalised"}
	var normalised []float64
	for i := range base {
		bb := float64(base[i].Traffic.TotalSecurityBytes())
		sb := float64(sal[i].Traffic.TotalSecurityBytes())
		n := sb / bb
		normalised = append(normalised, n)
		res.Table.AddRow(base[i].Workload,
			fmt.Sprintf("%.0f", bb), fmt.Sprintf("%.0f", sb), fmt.Sprintf("%.3f", n))
	}
	res.Summary["mean normalised traffic (paper: 0.4779)"] = metrics.Mean(normalised)
	res.Summary["min normalised traffic (paper: 0.1771)"] = metrics.Min(normalised)
	return res, nil
}

// Fig12 regenerates the bandwidth-utilisation comparison: the share of
// each memory's bandwidth consumed by security traffic, for both models.
// The paper reports Salus using 14.92% less of the CXL bandwidth and 2.05%
// less of the device bandwidth than the conventional design.
func (r *Runner) Fig12() (*FigResult, error) {
	cfg := r.Settings.Cfg
	base, err := r.suiteRuns(system.ModelBaseline, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	sal, err := r.suiteRuns(system.ModelSalus, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	cxlNum, cxlDen := cfg.Memory.CXLBytesPerCycleRational()
	cxlBW := float64(cxlNum) / float64(cxlDen)
	devBW := float64(cfg.Memory.DeviceAggregateBytesPerCycle())

	secUtil := func(run *stats.Run, tier stats.Tier, bw float64) float64 {
		if run.Cycles == 0 {
			return 0
		}
		return float64(run.Traffic.SecurityBytes(tier)) / float64(run.Cycles) / bw
	}
	res := &FigResult{Name: "Fig. 12 — security share of memory bandwidth", Summary: map[string]float64{}}
	res.Table.Header = []string{"workload", "cxl conv", "cxl salus", "dev conv", "dev salus"}
	var dCXL, dDev []float64
	for i := range base {
		bc := secUtil(base[i], stats.CXL, cxlBW)
		sc := secUtil(sal[i], stats.CXL, cxlBW)
		bd := secUtil(base[i], stats.Device, devBW)
		sd := secUtil(sal[i], stats.Device, devBW)
		dCXL = append(dCXL, (bc-sc)*100)
		dDev = append(dDev, (bd-sd)*100)
		res.Table.AddRow(base[i].Workload,
			fmt.Sprintf("%.3f", bc), fmt.Sprintf("%.3f", sc),
			fmt.Sprintf("%.4f", bd), fmt.Sprintf("%.4f", sd))
	}
	res.Summary["mean CXL utilisation saved, pp (paper: 14.92)"] = metrics.Mean(dCXL)
	res.Summary["mean device utilisation saved, pp (paper: 2.05)"] = metrics.Mean(dDev)
	return res, nil
}

// Fig13 regenerates the CXL-bandwidth sensitivity sweep: the geomean IPC
// improvement of Salus over the conventional model at CXL bandwidths of
// 1/32, 1/16, 1/8, and 1/4 of the device bandwidth. The paper reports
// 32.79%, 29.94%, 32.90%, and 21.76%.
func (r *Runner) Fig13() (*FigResult, error) {
	ratios := [][2]uint64{{1, 32}, {1, 16}, {1, 8}, {1, 4}}
	paper := []float64{32.79, 29.94, 32.90, 21.76}
	res := &FigResult{Name: "Fig. 13 — sensitivity to CXL bandwidth", Summary: map[string]float64{}}
	res.Table.Header = []string{"cxl bw ratio", "geomean improvement %", "paper %"}
	for i, ratio := range ratios {
		cfg := r.Settings.Cfg.WithCXLRatio(ratio[0], ratio[1])
		sub, err := r.fig10At(cfg, "")
		if err != nil {
			return nil, err
		}
		imp := sub.Summary["geomean improvement %% (paper: 29.94)"]
		res.Table.AddRow(fmt.Sprintf("1/%d", ratio[1]),
			fmt.Sprintf("%.2f", imp), fmt.Sprintf("%.2f", paper[i]))
		res.Summary[fmt.Sprintf("improvement %% at 1/%d", ratio[1])] = imp
	}
	return res, nil
}

// Fig14 regenerates the footprint sensitivity sweep: the geomean IPC
// improvement at device-memory-to-footprint ratios of 20%, 35%, and 50%.
// The paper reports 51.64%, 34.48%, and 26.83% — more of the footprint
// resident means fewer migrations and a smaller win.
func (r *Runner) Fig14() (*FigResult, error) {
	ratios := []float64{0.20, 0.35, 0.50}
	paper := []float64{51.64, 34.48, 26.83}
	res := &FigResult{Name: "Fig. 14 — sensitivity to device-memory/footprint ratio", Summary: map[string]float64{}}
	res.Table.Header = []string{"footprint ratio", "geomean improvement %", "paper %"}
	for i, ratio := range ratios {
		cfg := r.Settings.Cfg.WithFootprintRatio(ratio)
		sub, err := r.fig10At(cfg, "")
		if err != nil {
			return nil, err
		}
		imp := sub.Summary["geomean improvement %% (paper: 29.94)"]
		res.Table.AddRow(fmt.Sprintf("%.0f%%", ratio*100),
			fmt.Sprintf("%.2f", imp), fmt.Sprintf("%.2f", paper[i]))
		res.Summary[fmt.Sprintf("improvement %% at %.0f%%", ratio*100)] = imp
	}
	return res, nil
}

// Ablation isolates Salus's mechanisms cumulatively: interleaving-friendly
// counters alone, + collapsed checkpointed counters, + fetch-on-access,
// + fine-grained dirty tracking (= full Salus). Each row is the geomean
// IPC improvement over the conventional model.
func (r *Runner) Ablation() (*FigResult, error) {
	cfg := r.Settings.Cfg
	base, err := r.suiteRuns(system.ModelBaseline, vPlain, cfg)
	if err != nil {
		return nil, err
	}
	steps := []struct {
		label string
		v     variant
	}{
		{"interleaving-friendly counters", vAblCounters},
		{"+ collapsed checkpointed counters", vAblCollapse},
		{"+ fetch-only-on-access", vAblFetch},
		{"+ fine-grained dirty tracking (full Salus)", vPlain},
	}
	res := &FigResult{Name: "Ablation — cumulative Salus mechanisms", Summary: map[string]float64{}}
	res.Table.Header = []string{"configuration", "geomean improvement %", "security traffic vs conventional"}
	for _, st := range steps {
		runs, err := r.suiteRuns(system.ModelSalus, st.v, cfg)
		if err != nil {
			return nil, err
		}
		var imps, traffics []float64
		for i := range runs {
			imps = append(imps, float64(base[i].Cycles)/float64(runs[i].Cycles))
			bb := float64(base[i].Traffic.TotalSecurityBytes())
			if bb > 0 {
				traffics = append(traffics, float64(runs[i].Traffic.TotalSecurityBytes())/bb)
			}
		}
		gm, err := metrics.Geomean(imps)
		if err != nil {
			return nil, err
		}
		res.Table.AddRow(st.label,
			fmt.Sprintf("%.2f", metrics.ImprovementPct(gm)),
			fmt.Sprintf("%.3f", metrics.Mean(traffics)))
		res.Summary[st.label] = metrics.ImprovementPct(gm)
	}
	return res, nil
}
