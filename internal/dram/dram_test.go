package dram

import (
	"testing"

	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

func TestChannelInterleaving(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 4, 32, 100, 256, nil)
	cases := []struct {
		addr uint64
		want int
	}{
		{0, 0}, {255, 0}, {256, 1}, {512, 2}, {768, 3}, {1024, 0}, {1280, 1},
	}
	for _, c := range cases {
		if got := m.ChannelFor(c.addr); got != c.want {
			t.Errorf("ChannelFor(%d) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestAccessLatencyAndBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 2, 32, 100, 256, nil)
	var done1, done2, done3 sim.Cycle
	eng.At(0, func() {
		done1 = m.Access(0, 32, stats.Data, nil)   // ch0: 1 cycle service + 100
		done2 = m.Access(0, 32, stats.Data, nil)   // ch0 queued: completes 1 cycle later
		done3 = m.Access(256, 32, stats.Data, nil) // ch1: parallel
	})
	eng.Run(0)
	if done1 != 101 {
		t.Errorf("done1 = %d, want 101", done1)
	}
	if done2 != 102 {
		t.Errorf("done2 = %d, want 102 (queued behind done1)", done2)
	}
	if done3 != 101 {
		t.Errorf("done3 = %d, want 101 (independent channel)", done3)
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng := sim.NewEngine()
	var tr stats.Traffic
	m := New(eng, 2, 32, 10, 256, &tr)
	eng.At(0, func() {
		m.Access(0, 128, stats.Data, nil)
		m.Access(0, 32, stats.MAC, nil)
		m.AccessChannel(1, 64, stats.Counter, nil)
	})
	eng.Run(0)
	if got := tr.Bytes(stats.Device, stats.Data); got != 128 {
		t.Errorf("data bytes = %d, want 128", got)
	}
	if got := tr.Bytes(stats.Device, stats.MAC); got != 32 {
		t.Errorf("mac bytes = %d, want 32", got)
	}
	if got := tr.Bytes(stats.Device, stats.Counter); got != 64 {
		t.Errorf("counter bytes = %d, want 64", got)
	}
	if got := m.BytesServed(); got != 224 {
		t.Errorf("BytesServed = %d, want 224", got)
	}
}

func TestCallbackFires(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 1, 32, 5, 256, nil)
	fired := sim.Cycle(0)
	eng.At(0, func() {
		m.Access(0, 64, stats.Data, sim.Func(func() { fired = eng.Now() }))
	})
	eng.Run(0)
	if fired != 7 { // 64B at 32B/cycle = 2 cycles + 5 latency
		t.Errorf("callback at %d, want 7", fired)
	}
}

func TestBusyAndUtilization(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 2, 32, 0, 256, nil)
	eng.At(0, func() {
		m.Access(0, 320, stats.Data, nil) // ch0 busy 10 cycles
	})
	eng.At(20, func() {}) // advance the clock to cycle 20
	eng.Run(0)
	if got := m.BusyCycles(); got != 10 {
		t.Errorf("BusyCycles = %d, want 10", got)
	}
	// ch0 busy 10/20 = 0.5, ch1 idle -> mean 0.25.
	if got := m.Utilization(); got != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
}

func TestAccessChannelWraps(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 3, 32, 0, 256, nil)
	eng.At(0, func() { m.AccessChannel(7, 32, stats.Data, nil) }) // 7 % 3 = 1
	eng.Run(0)
	if m.BytesServed() != 32 {
		t.Error("wrapped channel access not served")
	}
}

func TestNewPanicsOnZeroChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0 channels) did not panic")
		}
	}()
	New(sim.NewEngine(), 0, 32, 0, 256, nil)
}

func TestChannelsAndMaxQueueDelay(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 4, 32, 0, 256, nil)
	if m.Channels() != 4 {
		t.Errorf("Channels = %d, want 4", m.Channels())
	}
	var delay sim.Cycle
	eng.At(0, func() {
		m.Access(0, 320, stats.Data, nil) // ch0 busy 10 cycles
		delay = m.MaxQueueDelay()
	})
	eng.Run(0)
	if delay != 10 {
		t.Errorf("MaxQueueDelay = %d, want 10", delay)
	}
}
