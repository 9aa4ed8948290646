package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/salus-sim/salus/internal/metrics"
	"github.com/salus-sim/salus/internal/stats"
)

// The paper's headline numbers (GPGPU-Sim, Table II machine) that the
// fidelity errors are measured against.
const (
	paperFig3Slowdown = 2.04   // Fig. 3 geomean slowdown, conventional / no-movement-overhead
	paperFig10GainPct = 29.94  // Fig. 10 geomean IPC improvement of Salus over conventional, %
	paperFig11Traffic = 0.4779 // Fig. 11 mean security traffic, Salus / conventional
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs need not be sorted and is not modified.
func median(xs []float64) float64 { return medianSorted(sortedCopy(xs)) }

// medianSorted is median for xs already sorted, without a copy.
func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail returns the benchmark's tail latency of sorted samples and the
// quantile it sits at: the highest nearest-rank percentile, at most p99,
// that leaves at least ten samples beyond it. With fewer than 20 samples
// that percentile would fall below the median, so the maximum is
// reported instead (q = 1).
func tail(sorted []float64) (v, q float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(0.99 * float64(n)))
	if beyond := n - 10; beyond < rank {
		rank = beyond
	}
	if rank < (n+1)/2 {
		rank = n
	}
	return sorted[rank-1], float64(rank) / float64(n)
}

// fig3Slowdown is Fig. 3's summary: the geomean over workloads of the
// conventional model's cycles over the same model without data-movement
// overheads. Runs are paired by index.
func fig3Slowdown(base, noMove []*stats.Run) (float64, error) {
	if len(base) != len(noMove) {
		return 0, fmt.Errorf("fig3: %d conventional runs vs %d no-movement runs", len(base), len(noMove))
	}
	var ratios []float64
	for i := range base {
		ratios = append(ratios, float64(base[i].Cycles)/float64(noMove[i].Cycles))
	}
	return metrics.Geomean(ratios)
}

// fig10GainPct is Fig. 10's summary: the geomean improvement, in percent,
// of Salus's no-security-normalised IPC over the conventional model's.
func fig10GainPct(none, base, sal []*stats.Run) (float64, error) {
	if len(none) != len(base) || len(base) != len(sal) {
		return 0, fmt.Errorf("fig10: unpaired runs (%d none, %d conventional, %d salus)", len(none), len(base), len(sal))
	}
	var ratios []float64
	for i := range none {
		bn := base[i].IPC() / none[i].IPC()
		sn := sal[i].IPC() / none[i].IPC()
		ratios = append(ratios, sn/bn)
	}
	gm, err := metrics.Geomean(ratios)
	if err != nil {
		return 0, err
	}
	return metrics.ImprovementPct(gm), nil
}

// fig11Traffic is Fig. 11's summary: the mean over workloads of Salus's
// security-metadata bytes normalised to the conventional model's.
func fig11Traffic(base, sal []*stats.Run) (float64, error) {
	if len(base) != len(sal) {
		return 0, fmt.Errorf("fig11: %d conventional runs vs %d salus runs", len(base), len(sal))
	}
	var norm []float64
	for i := range base {
		norm = append(norm, float64(sal[i].Traffic.TotalSecurityBytes())/float64(base[i].Traffic.TotalSecurityBytes()))
	}
	return metrics.Mean(norm), nil
}

// fidelityErr is the absolute distance of a simulated figure from the
// paper's value, in the figure's own unit.
func fidelityErr(simulated, paper float64) float64 { return math.Abs(simulated - paper) }
