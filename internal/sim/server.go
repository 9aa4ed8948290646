package sim

// Server models a work-conserving FIFO resource with a fixed service rate,
// such as a memory channel or a link. Work is submitted in abstract units
// (typically bytes); each unit takes cyclesPerUnit cycles of service. A
// submission completes after its queueing delay plus its own service time
// plus a fixed pipeline latency.
//
// Server is the single queueing abstraction shared by the DRAM channel and
// CXL link models; contention effects arise naturally from the FIFO.
type Server struct {
	eng *Engine

	// cyclesPerUnitNum/cyclesPerUnitDen express the service time per unit
	// as a rational so bandwidth ratios like 1/16th of a channel can be
	// modelled without floating-point drift.
	num, den uint64

	latency Cycle // fixed latency added to every completion

	// freeAt is the cycle at which the server finishes all queued work.
	freeAt Cycle

	// accumulated service residue (numerator units) for rational rates.
	residue uint64

	busyCycles Cycle // total cycles spent serving (for utilisation)
	unitsDone  uint64
}

// NewServer creates a server attached to an engine. num/den is the number of
// cycles needed to serve one unit (e.g. num=1, den=4 means 4 units per
// cycle). latency is a fixed pipeline delay added to each completion.
func NewServer(eng *Engine, num, den uint64, latency Cycle) *Server {
	if num == 0 || den == 0 {
		panic("sim: server rate must be positive")
	}
	return &Server{eng: eng, num: num, den: den, latency: latency}
}

// Submit enqueues units of work and schedules done (may be nil) when the
// work has been fully served and the fixed latency elapsed. It returns the
// completion cycle.
func (s *Server) Submit(units uint64, done Handler) Cycle {
	now := s.eng.Now()
	if s.freeAt < now {
		// The server went idle. The residue — fractional service already
		// submitted but not yet billed a whole cycle — carries over to the
		// next busy period, so busyCycles converges to the exact rational
		// total instead of silently dropping up to (den-1)/den cycles per
		// idle gap.
		s.freeAt = now
	}
	// service = floor((units*num + residue) / den), remainder carried.
	total := units*s.num + s.residue
	service := total / s.den
	s.residue = total % s.den
	start := s.freeAt
	s.freeAt = start + Cycle(service)
	s.busyCycles += Cycle(service)
	s.unitsDone += units
	completeAt := s.freeAt + s.latency
	if done != nil {
		s.eng.Schedule(completeAt, done)
	}
	return completeAt
}

// QueueDelay returns how many cycles a new submission would wait before
// service begins.
func (s *Server) QueueDelay() Cycle {
	now := s.eng.Now()
	if s.freeAt <= now {
		return 0
	}
	return s.freeAt - now
}

// BusyCycles returns the total cycles this server spent actively serving.
func (s *Server) BusyCycles() Cycle { return s.busyCycles }

// UnitsServed returns the total units submitted so far.
func (s *Server) UnitsServed() uint64 { return s.unitsDone }

// Utilization returns busy cycles divided by the elapsed cycles (0..1).
func (s *Server) Utilization() float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	busy := s.busyCycles
	if busy > now {
		busy = now
	}
	return float64(busy) / float64(now)
}
