// Package cxlmem models the CXL type-3 expansion memory: a single logical
// device behind a bandwidth-limited link. Aggregate link bandwidth is a
// rational fraction of the device-memory aggregate bandwidth (1/16th by
// default, comparable to PCIe 5.0 ×16), and every access pays a fixed
// link + media latency that exceeds the local device memory's.
package cxlmem

import (
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// Memory is the CXL-attached expansion memory.
type Memory struct {
	link    *sim.Server
	traffic *stats.Traffic
}

// New creates the expansion memory. Bandwidth is bwNum/bwDen bytes per
// cycle; latency is the fixed per-access round-trip cost in cycles.
func New(eng *sim.Engine, bwNum, bwDen, latency uint64, tr *stats.Traffic) *Memory {
	// Server's rate parameters are cycles-per-unit, the reciprocal of
	// bytes-per-cycle.
	return &Memory{
		link:    sim.NewServer(eng, bwDen, bwNum, sim.Cycle(latency)),
		traffic: tr,
	}
}

// Access submits a transfer of the given size and class over the link and
// schedules done (may be nil) at completion.
func (m *Memory) Access(bytes uint64, class stats.Class, done sim.Handler) sim.Cycle {
	if m.traffic != nil {
		m.traffic.Add(stats.CXL, class, bytes)
	}
	return m.link.Submit(bytes, done)
}

// BusyCycles returns cycles the link spent transferring.
func (m *Memory) BusyCycles() uint64 { return uint64(m.link.BusyCycles()) }

// BytesServed returns total bytes moved over the link.
func (m *Memory) BytesServed() uint64 { return m.link.UnitsServed() }

// Utilization returns link utilisation (0..1).
func (m *Memory) Utilization() float64 { return m.link.Utilization() }

// QueueDelay returns the current link queueing delay.
func (m *Memory) QueueDelay() sim.Cycle { return m.link.QueueDelay() }
