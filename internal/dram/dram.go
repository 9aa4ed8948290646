// Package dram models the GPU device memory (HBM/GDDR) as a set of
// independent channels. Each channel is a bandwidth-limited FIFO server:
// a request occupies the channel for bytes/bandwidth cycles and completes
// after an additional fixed access latency. Fine-grained chunk interleaving
// maps consecutive 256 B chunks of a page to consecutive channels, which is
// how current GPUs spread a page over many partitions (§II-D of the paper).
package dram

import (
	"fmt"

	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// Channel is one device-memory channel (one memory partition's DRAM).
type Channel struct {
	id     int
	server *sim.Server
}

// Memory is the collection of device channels.
type Memory struct {
	eng       *sim.Engine
	channels  []*Channel
	chunkSize uint64
	traffic   *stats.Traffic
}

// New creates a device memory with n channels, each serving bytesPerCycle
// with the given fixed latency. Traffic is accounted into tr (tier Device).
func New(eng *sim.Engine, n int, bytesPerCycle, latency uint64, chunkSize uint64, tr *stats.Traffic) *Memory {
	if n <= 0 {
		panic(fmt.Sprintf("dram: invalid channel count %d", n))
	}
	m := &Memory{eng: eng, chunkSize: chunkSize, traffic: tr}
	for i := 0; i < n; i++ {
		m.channels = append(m.channels, &Channel{
			id:     i,
			server: sim.NewServer(eng, 1, bytesPerCycle, sim.Cycle(latency)),
		})
	}
	return m
}

// Channels returns the channel count.
func (m *Memory) Channels() int { return len(m.channels) }

// ChannelFor maps a device-memory address to its channel by chunk
// interleaving: consecutive chunks go to consecutive channels.
func (m *Memory) ChannelFor(addr uint64) int {
	return int((addr / m.chunkSize) % uint64(len(m.channels)))
}

// Access submits a request of the given size and class to the channel
// owning addr, and schedules done (may be nil) at completion time.
func (m *Memory) Access(addr uint64, bytes uint64, class stats.Class, done sim.Handler) sim.Cycle {
	ch := m.channels[m.ChannelFor(addr)]
	if m.traffic != nil {
		m.traffic.Add(stats.Device, class, bytes)
	}
	return ch.server.Submit(bytes, done)
}

// AccessChannel submits directly to a channel index (used for metadata that
// is addressed per-partition rather than by global address).
func (m *Memory) AccessChannel(channel int, bytes uint64, class stats.Class, done sim.Handler) sim.Cycle {
	ch := m.channels[channel%len(m.channels)]
	if m.traffic != nil {
		m.traffic.Add(stats.Device, class, bytes)
	}
	return ch.server.Submit(bytes, done)
}

// BusyCycles sums busy cycles over all channels.
func (m *Memory) BusyCycles() uint64 {
	var sum uint64
	for _, ch := range m.channels {
		sum += uint64(ch.server.BusyCycles())
	}
	return sum
}

// BytesServed sums bytes served over all channels.
func (m *Memory) BytesServed() uint64 {
	var sum uint64
	for _, ch := range m.channels {
		sum += ch.server.UnitsServed()
	}
	return sum
}

// Utilization returns mean channel utilisation (0..1).
func (m *Memory) Utilization() float64 {
	if len(m.channels) == 0 {
		return 0
	}
	var sum float64
	for _, ch := range m.channels {
		sum += ch.server.Utilization()
	}
	return sum / float64(len(m.channels))
}

// MaxQueueDelay returns the worst current queueing delay across channels,
// a congestion signal used by tests.
func (m *Memory) MaxQueueDelay() sim.Cycle {
	var max sim.Cycle
	for _, ch := range m.channels {
		if d := ch.server.QueueDelay(); d > max {
			max = d
		}
	}
	return max
}
