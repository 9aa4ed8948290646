package serve

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/salus-sim/salus/internal/oracle"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
)

// Client is one synthetic traffic stream: a seeded generator issuing
// reads and writes over its own disjoint byte region, carrying a
// region-sized oracle of the plaintext it believes the engine holds.
//
// A write that fails after reaching the engine (ErrAmbiguous) may or may
// not have applied, so the oracle marks its bytes ambiguous (see package
// oracle): a later verified read must see the previous value or the value
// of an unresolved write, and resolves the byte to it. Any other byte is
// a silent divergence and is recorded as a violation.
//
// All oracle mutation happens inside Request.OnDone callbacks, which the
// server runs under its engine lock; snapshots and restores of Oracle()
// are meant for a quiesced phase (Server.WithQuiesced or after Run
// returns), which is what makes checkpoint/crash state capture atomic.
// Everything else is confined to the Run goroutine.
type Client struct {
	cfg    ClientConfig
	rng    *rand.Rand
	oracle *oracle.Bytes

	violations []string
	outcomes   OutcomeCounts
}

// OutcomeCounts tallies the typed outcomes one client observed.
type OutcomeCounts struct {
	Served, Shed, Deadline, Overload, Refused, Ambiguous, Untyped int
}

// ClientConfig configures one traffic stream.
type ClientConfig struct {
	ID    int
	Class Class
	// Tenant tags every request the client issues (per-tenant admission
	// and Report.Tenants rollup); empty opts out.
	Tenant string
	// Base/Len is the client's byte region; regions of concurrent
	// clients must be disjoint (the consistency oracle owns its bytes).
	Base securemem.HomeAddr
	Len  int
	// Ops is how many requests Run issues.
	Ops int
	// Seed drives the request generator.
	Seed int64
	// WriteFrac is the write fraction in [0, 1]; zero defaults to 0.4.
	WriteFrac float64
	// MaxSpan bounds a request's byte span; zero defaults to 96, always
	// clamped to Len.
	MaxSpan int
	// Deadline and Retries override the class defaults when non-zero
	// (relative deadline in cycles; Retries=-1 forces zero retries).
	Deadline sim.Cycle
	Retries  int
	// Pace, when set, receives exactly one tick per completed request —
	// the chaos driver's work-based pacing signal. The send blocks, so
	// the receiver must keep draining until every client returned; the
	// guaranteed delivery is what makes a driver's tick-indexed chaos
	// schedule a deterministic function of its seed.
	Pace chan<- struct{}
}

// NewClient builds a client over a zeroed region (a fresh engine reads
// zeros, so the oracle starts all-zero).
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Len <= 0 {
		return nil, fmt.Errorf("serve: client %d: region length %d", cfg.ID, cfg.Len)
	}
	if cfg.Class < 0 || cfg.Class >= NumClasses {
		return nil, fmt.Errorf("serve: client %d: invalid class %d", cfg.ID, int(cfg.Class))
	}
	if cfg.WriteFrac == 0 {
		cfg.WriteFrac = 0.4
	}
	if cfg.MaxSpan <= 0 {
		cfg.MaxSpan = 96
	}
	if cfg.MaxSpan > cfg.Len {
		cfg.MaxSpan = cfg.Len
	}
	return &Client{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		oracle: oracle.New(cfg.Len),
	}, nil
}

// Run issues cfg.Ops requests against s, blocking until done. It must
// run on its own goroutine when other clients share the server.
func (c *Client) Run(s *Server) {
	for i := 0; i < c.cfg.Ops; i++ {
		span := 1 + c.rng.Intn(c.cfg.MaxSpan)
		off := c.rng.Intn(c.cfg.Len - span + 1)
		req := &Request{
			Class:   c.cfg.Class,
			Addr:    c.cfg.Base + securemem.HomeAddr(off),
			Tenant:  c.cfg.Tenant,
			Retries: c.cfg.Retries,
		}
		if c.cfg.Deadline > 0 {
			req.Deadline = s.Clock().Now() + c.cfg.Deadline
		}
		if c.rng.Float64() < c.cfg.WriteFrac {
			data := make([]byte, span)
			c.rng.Read(data)
			req.Write, req.Data = true, data
			req.OnDone = func(err error) { c.onWrite(off, data, err) }
		} else {
			buf := make([]byte, span)
			req.Buf = buf
			req.OnDone = func(err error) { c.onRead(off, buf, err) }
		}
		c.note(s.Do(req))
		if c.cfg.Pace != nil {
			c.cfg.Pace <- struct{}{}
		}
	}
}

// note classifies a terminal outcome; an error outside the typed
// taxonomy is itself a violation ("never dropped, never untyped").
func (c *Client) note(err error) {
	switch {
	case err == nil:
		c.outcomes.Served++
	case errors.Is(err, ErrShed):
		c.outcomes.Shed++
	case errors.Is(err, ErrOverload):
		c.outcomes.Overload++
	case errors.Is(err, ErrDeadline):
		c.outcomes.Deadline++
	case errors.Is(err, ErrAmbiguous):
		c.outcomes.Ambiguous++
	case errors.Is(err, ErrRetryBudget),
		errors.Is(err, ErrClosed),
		errors.Is(err, securemem.ErrTransient),
		errors.Is(err, securemem.ErrPoison),
		errors.Is(err, securemem.ErrLinkDown),
		errors.Is(err, securemem.ErrDegraded),
		errors.Is(err, securemem.ErrQueueFull),
		errors.Is(err, securemem.ErrIntegrity),
		errors.Is(err, securemem.ErrFreshness):
		c.outcomes.Refused++
	default:
		c.outcomes.Untyped++
		c.fail("untyped error: %v", err)
	}
}

// onWrite folds a write outcome into the oracle. The server's contract
// is that a write's OnDone error is nil or wraps ErrAmbiguous.
func (c *Client) onWrite(off int, data []byte, err error) {
	switch {
	case err == nil:
		c.oracle.Write(off, data)
	case errors.Is(err, ErrAmbiguous):
		c.oracle.Ambiguous(off, data)
	default:
		c.fail("write outcome neither success nor ambiguous: %v", err)
	}
}

// onRead verifies a read outcome byte-for-byte against the oracle.
func (c *Client) onRead(off int, buf []byte, err error) {
	if err != nil {
		return // typed refusal: no bytes to verify
	}
	for _, d := range c.oracle.ObserveAll(off, buf) {
		c.fail("silent divergence: %v", d)
	}
}

func (c *Client) fail(format string, args ...any) {
	c.violations = append(c.violations,
		fmt.Sprintf("client %d (%v): %s", c.cfg.ID, c.cfg.Class, fmt.Sprintf(format, args...)))
}

// Violations returns the recorded consistency violations. Call only
// after Run returns (or from a quiesced phase).
func (c *Client) Violations() []string { return c.violations }

// Outcomes returns the client-side outcome tally; Untyped must be zero
// on a healthy run.
func (c *Client) Outcomes() OutcomeCounts { return c.outcomes }

// Oracle returns the client's consistency oracle, for snapshots at a
// checkpoint and rewinds after a crash. Use only from a quiesced phase.
func (c *Client) Oracle() *oracle.Bytes { return c.oracle }

// VerifyFinal reads the whole region through read and checks it against
// the oracle, returning every divergent byte. Call after quiesce with
// chaos disarmed: the read itself must succeed.
func (c *Client) VerifyFinal(read func(addr securemem.HomeAddr, buf []byte) error) []string {
	buf := make([]byte, c.cfg.Len)
	if err := read(c.cfg.Base, buf); err != nil {
		return []string{fmt.Sprintf("client %d (%v): final read failed: %v", c.cfg.ID, c.cfg.Class, err)}
	}
	var out []string
	for _, d := range c.oracle.ObserveAll(0, buf) {
		out = append(out, fmt.Sprintf("client %d (%v): final divergence: %v", c.cfg.ID, c.cfg.Class, d))
	}
	return out
}
