package cxlmem

import (
	"testing"

	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

func TestBandwidthRatio(t *testing.T) {
	// 32 B/cycle link: 512 bytes take 16 cycles + latency.
	eng := sim.NewEngine()
	m := New(eng, 32, 1, 600, nil)
	var done sim.Cycle
	eng.At(0, func() { done = m.Access(512, stats.Data, nil) })
	eng.Run(0)
	if done != 616 {
		t.Errorf("done = %d, want 616", done)
	}
}

func TestFractionalBandwidth(t *testing.T) {
	// 1/2 byte per cycle: 64 bytes take 128 cycles.
	eng := sim.NewEngine()
	m := New(eng, 1, 2, 0, nil)
	var done sim.Cycle
	eng.At(0, func() { done = m.Access(64, stats.Data, nil) })
	eng.Run(0)
	if done != 128 {
		t.Errorf("done = %d, want 128", done)
	}
}

func TestLinkSerialisesTransfers(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 32, 1, 100, nil)
	var d1, d2 sim.Cycle
	eng.At(0, func() {
		d1 = m.Access(320, stats.Data, nil) // 10 cycles
		d2 = m.Access(320, stats.Data, nil) // queued: +10
	})
	eng.Run(0)
	if d1 != 110 || d2 != 120 {
		t.Errorf("d1=%d d2=%d, want 110/120", d1, d2)
	}
	if m.BusyCycles() != 20 {
		t.Errorf("BusyCycles = %d, want 20", m.BusyCycles())
	}
}

func TestTrafficClasses(t *testing.T) {
	eng := sim.NewEngine()
	var tr stats.Traffic
	m := New(eng, 32, 1, 0, &tr)
	eng.At(0, func() {
		m.Access(256, stats.Data, nil)
		m.Access(32, stats.MAC, nil)
		m.Access(64, stats.BMT, nil)
	})
	eng.Run(0)
	if tr.Bytes(stats.CXL, stats.Data) != 256 ||
		tr.Bytes(stats.CXL, stats.MAC) != 32 ||
		tr.Bytes(stats.CXL, stats.BMT) != 64 {
		t.Errorf("traffic = %+v", tr)
	}
	if tr.SecurityBytes(stats.CXL) != 96 {
		t.Errorf("security bytes = %d, want 96", tr.SecurityBytes(stats.CXL))
	}
	if m.BytesServed() != 352 {
		t.Errorf("BytesServed = %d, want 352", m.BytesServed())
	}
}

func TestCallback(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 1, 1, 9, nil)
	var at sim.Cycle
	eng.At(0, func() { m.Access(1, stats.Data, sim.Func(func() { at = eng.Now() })) })
	eng.Run(0)
	if at != 10 {
		t.Errorf("callback at %d, want 10", at)
	}
}

func TestUtilizationAndQueueDelay(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 32, 1, 0, nil)
	var delay sim.Cycle
	eng.At(0, func() {
		m.Access(320, stats.Data, nil) // 10 cycles of link time
		delay = m.QueueDelay()
	})
	eng.At(20, func() {})
	eng.Run(0)
	if delay != 10 {
		t.Errorf("QueueDelay = %d, want 10", delay)
	}
	if got := m.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
}
