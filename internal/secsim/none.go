package secsim

import "github.com/salus-sim/salus/internal/sim"

// None is the no-security configuration: data moves unprotected, and the
// only eviction policy difference from the secure models is that, like a
// conventional GPU (whose page tables carry no dirty bit), whole pages are
// written back.
type None struct{}

// NewNone returns the no-security engine.
func NewNone() *None { return &None{} }

// Name implements Engine.
func (*None) Name() string { return "none" }

// OnRead implements Engine: no security work.
func (*None) OnRead(homeAddr HomeAddr, devAddr DevAddr, done sim.Handler) { fire(done) }

// OnWrite implements Engine: no security work.
func (*None) OnWrite(homeAddr HomeAddr, devAddr DevAddr, done sim.Handler) { fire(done) }

// OnMigrateIn implements Engine: no security work.
func (*None) OnMigrateIn(homePage, frame int, done sim.Handler) { fire(done) }

// OnChunkFill implements Engine: no security work.
func (*None) OnChunkFill(homePage, frame, chunk int, done sim.Handler) { fire(done) }

// OnEvict implements Engine: no security work.
func (*None) OnEvict(homePage, frame int, dirty, present uint64, done sim.Handler) { fire(done) }

// FineGrainedWriteback implements Engine: conventional GPUs write back
// whole pages.
func (*None) FineGrainedWriteback() bool { return false }
