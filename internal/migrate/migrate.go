// Package migrate implements attested live migration of one protected
// tenant between two simulated hosts (tenant.Pools). Salus's
// no-re-encryption property is what makes the pipeline cheap: the
// tenant's memory moves as ciphertext verbatim — the stream carries the
// checkpoint journal (ciphertext pages plus the compact CXL-side
// metadata: counters, MAC sectors, TrustedRoot lineage) and the
// destination rebuilds the tenant with tenant.Pool.RecoverTenant, whose
// derived keys match the source's by construction when both pools hold
// the same masters.
//
// The pipeline is robust by construction, not by luck:
//
//   - An attestation handshake (Measurement of tenant identity, key
//     domain, geometry, and slice shape) gates the transfer; the MAC
//     chain of every stream frame is seeded from the full handshake
//     transcript under the tenant's migration key, so handshake
//     tampering poisons every later frame.
//   - Every stream record is CRC+MAC framed (frame.go): truncation and
//     bit flips fail ErrTornStream, reorder and duplication fail
//     ErrReplay, forgery fails ErrAttestation, epoch/lineage rollback
//     fails ErrFreshness. Always typed, never bytes, never a panic.
//   - Sync runs as iterative delta rounds with a convergence bound: a
//     full self-contained bootstrap round, then checkpoint deltas while
//     the source keeps serving, then a final quiesced round + cutover
//     under serve.WithQuiescedSwap so in-flight traffic lands entirely
//     pre-cutover on the source or post-cutover on the destination.
//   - Link flaps retry with capped backoff charged to the sim clock;
//     exhausted retries park the session resumable (ErrLinkLost) — a
//     later Run continues with the in-flight record, never re-sending
//     chunks the destination already verified.
//   - The destination applies nothing until the cutover record
//     verifies; any rejection leaves it untouched and the source still
//     serving. There is no half-applied destination state by design.
//
// salus-check -migrate replays the whole contract per seed: a
// differential oracle against a no-migration control run, a
// man-in-the-middle phase injecting every attack at every record
// boundary, crashes of either endpoint at every stream boundary, and
// bystander tenants on both pools asserted zero-blast-radius.
package migrate

import (
	"errors"
	"fmt"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/tenant"
)

// Typed failure taxonomy. errors.Is is the supported way to classify an
// outcome; every adversarial or accidental stream corruption maps to
// exactly one of the first four.
var (
	// ErrAttestation reports an identity failure: handshake
	// measurements that do not describe the same tenant, a frame MAC
	// forged or computed under the wrong key or chain state, or a
	// destination whose applied state does not reproduce the attested
	// digest.
	ErrAttestation = errors.New("migrate: attestation failed")
	// ErrTornStream reports structural stream damage: truncated or
	// bit-flipped records, impossible lengths, rounds cut off before
	// their commit.
	ErrTornStream = errors.New("migrate: torn stream")
	// ErrReplay reports a record out of stream position: reordered,
	// duplicated, or injected after completion.
	ErrReplay = errors.New("migrate: stream record replayed or reordered")
	// ErrFreshness reports a rollback: a session or round trying to
	// install state at or below an epoch the destination already
	// trusts.
	ErrFreshness = errors.New("migrate: stale lineage (rollback rejected)")
	// ErrLinkLost reports transfer retries exhausted mid-stream; the
	// session stays resumable and the source stays intact.
	ErrLinkLost = errors.New("migrate: link lost (session resumable)")
	// ErrConfig reports an invalid migration configuration.
	ErrConfig = errors.New("migrate: invalid configuration")
)

// Swapper is the quiesced-cutover surface: serve.Server implements it.
// The callback runs with the service drained and the old engine handed
// in; returning the destination engine atomically redirects traffic.
type Swapper interface {
	WithQuiescedSwap(fn func(old *securemem.Concurrent) (*securemem.Concurrent, error)) error
}

// RetryPolicy bounds the per-record link retry loop, mirroring
// securemem's CXL retry discipline: backoff doubles from BaseBackoff,
// capped at MaxBackoff, charged to the sim clock.
type RetryPolicy struct {
	MaxRetries  int
	BaseBackoff sim.Cycle
	MaxBackoff  sim.Cycle
}

// DefaultRetryPolicy absorbs a short flap per record without giving up.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 8, BaseBackoff: 16, MaxBackoff: 1024}
}

func (p RetryPolicy) backoff(attempt int) sim.Cycle {
	if p.BaseBackoff == 0 {
		return 0
	}
	if attempt > 30 {
		attempt = 30
	}
	d := p.BaseBackoff << uint(attempt)
	if p.MaxBackoff != 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// Config describes one migration.
type Config struct {
	// SourcePool/Source are the serving host and the tenant moving off
	// it; DestPool must hold a same-id, same-shape slice built from the
	// same master keys.
	SourcePool *tenant.Pool
	Source     *tenant.Tenant
	DestPool   *tenant.Pool

	// Link models the inter-host transport; nil streams loss-free.
	// Clock absorbs transfer latency and retry backoff when non-nil.
	Link  *link.Link
	Clock *sim.Engine
	Retry RetryPolicy // zero value selects DefaultRetryPolicy

	// MaxRounds caps total sync rounds including the final quiesced one
	// (0 = 4); ConvergeBytes is the delta size at which sync stops
	// iterating and cuts over (0 = one chunk); ChunkSize is the stream
	// chunk payload size (0 = 1024).
	MaxRounds     int
	ConvergeBytes int
	ChunkSize     int

	// Nonce seeds the session MAC chain on the destination side. The
	// deterministic core takes it from the caller (campaigns derive it
	// from the seed) rather than ambient randomness.
	Nonce [32]byte

	// Swap, when non-nil, runs the final round and cutover inside a
	// quiesced service swap, and receives the destination engine.
	Swap Swapper

	// Tap, when non-nil, observes every sealed record just before
	// delivery and may return a replacement — the man-in-the-middle
	// hook the adversarial campaign drives (and its recorder: a tap
	// that copies frames builds the replay tape). Returning nil
	// delivers the original record unchanged. index counts records
	// from 0.
	Tap func(index int, frame []byte) []byte
}

func (c *Config) validate() error {
	switch {
	case c.SourcePool == nil || c.Source == nil || c.DestPool == nil:
		return fmt.Errorf("%w: source pool, source tenant, and destination pool are required", ErrConfig)
	case c.MaxRounds < 0 || c.ConvergeBytes < 0 || c.ChunkSize < 0:
		return fmt.Errorf("%w: negative round/converge/chunk bound", ErrConfig)
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 4
	}
	if c.MaxRounds < 2 {
		return fmt.Errorf("%w: need at least a bootstrap and a final round", ErrConfig)
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 1024
	}
	if c.ConvergeBytes == 0 {
		c.ConvergeBytes = c.ChunkSize
	}
	if c.Retry == (RetryPolicy{}) {
		c.Retry = DefaultRetryPolicy()
	}
	return nil
}

// Session is one migration in flight: the source-side cursor over the
// sync journal, the sealed-frame send queue, and the in-process
// destination endpoint. A session whose Run fails ErrLinkLost holds its
// position; a later Run resumes at the in-flight record.
type Session struct {
	cfg  Config
	recv *Receiver
	ch   *chain

	store   *crash.MemStore
	journal *crash.Journal
	framed  int // journal bytes already cut into frames

	queue     [][]byte // sealed frames not yet delivered
	delivered int      // records handed to the tap so far
	round     uint32
	lastDelta int
	lost      bool
	final     bool // final quiesced phase entered: failures become terminal
	done      bool
	failed    error

	ops stats.MigrateOps
}

// Start validates the configuration and performs the attestation
// handshake. Every handshake refusal is typed; nothing has moved yet.
func Start(cfg Config) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	recv, err := NewReceiver(cfg.DestPool, cfg.Source.ID(), cfg.Nonce)
	if err != nil {
		return nil, err
	}
	offer := Offer{Measurement: Measure(cfg.SourcePool, cfg.Source)}
	accept, err := recv.Accept(offer)
	if err != nil {
		return nil, err
	}
	// The source checks the destination's measurement too: attestation
	// is mutual, not a one-way courtesy.
	if err := checkMeasurements(offer.Measurement, accept.Measurement); err != nil {
		return nil, err
	}
	key, err := cfg.Source.MigrationKey()
	if err != nil {
		return nil, err
	}
	store := crash.NewMemStore()
	// The bootstrap round journals every page; room for it up front
	// keeps the store from regrowing (and recopying) while it fills.
	store.Grow(int(securemem.MaxCheckpointBytes(cfg.SourcePool.Geometry(), cfg.Source.Pages())))
	s := &Session{
		cfg:     cfg,
		recv:    recv,
		ch:      newChain(key, chainSeed(key, offer, accept)),
		store:   store,
		journal: crash.NewJournal(store),
		ops:     stats.MigrateOps{Tenant: cfg.Source.ID()},
	}
	return s, nil
}

// Run drives the migration to completion: bootstrap round, delta rounds
// until the journal delta converges or the round budget is spent, then
// the final quiesced round and cutover. A link loss during the sync
// rounds parks the session mid-record (ErrLinkLost); calling Run again
// resumes there without re-sending any verified chunk. A failure inside
// the final quiesced phase is terminal instead — a resumed drain would
// complete the cutover on state captured before the quiesce was
// released, silently dropping writes served in between — and every
// terminal path leaves the source serving and the destination
// unmodified.
func (s *Session) Run() error {
	if s.done {
		return nil
	}
	if s.failed != nil {
		return s.failed
	}
	if s.lost {
		s.lost = false
		s.ops.Resumes++
		// Every already-verified chunk survives the resume; a naive
		// restart would re-stream them all.
		s.ops.ChunksSkipped += s.ops.ChunksSent
	}
	if !s.final {
		if err := s.drain(); err != nil {
			return s.fail(err)
		}
		for int(s.round) < s.cfg.MaxRounds-1 {
			if s.round > 0 && s.lastDelta <= s.cfg.ConvergeBytes {
				break // converged: the remaining delta fits the final round
			}
			if err := s.syncRound(false); err != nil {
				return s.fail(err)
			}
		}
		s.final = true
	}
	if err := s.runFinal(); err != nil {
		s.failed = err
		return err
	}
	return nil
}

// fail marks err terminal unless it is a resumable link loss.
func (s *Session) fail(err error) error {
	if !errors.Is(err, ErrLinkLost) {
		s.failed = err
	}
	return err
}

// runFinal executes the quiesced final round and cutover, through the
// Swapper when one is configured so service flips atomically from the
// source engine to the destination engine.
func (s *Session) runFinal() error {
	if s.cfg.Swap != nil {
		return s.cfg.Swap.WithQuiescedSwap(func(old *securemem.Concurrent) (*securemem.Concurrent, error) {
			if err := s.cutover(); err != nil {
				return nil, err
			}
			dst, err := s.cfg.DestPool.Tenant(s.ops.Tenant)
			if err != nil {
				return nil, err
			}
			return dst.Engine(), nil
		})
	}
	return s.cutover()
}

// Resumable reports whether a failed Run can be retried: true only
// after a link loss during the sync rounds; the final quiesced phase
// does not resume.
func (s *Session) Resumable() bool {
	return !s.done && s.failed == nil
}

// Ops returns the session's migration counters, including the typed
// rejections the destination endpoint recorded.
func (s *Session) Ops() stats.MigrateOps {
	ops := s.ops
	r := s.recv.Ops()
	ops.Torn += r.Torn
	ops.Replay += r.Replay
	ops.Attest += r.Attest
	ops.Fresh += r.Fresh
	return ops
}

// syncRound checkpoints one epoch (full on the bootstrap round), frames
// the new journal delta, and streams it. final selects the quiesced
// path's accounting; the caller provides the quiescing.
func (s *Session) syncRound(final bool) error {
	var (
		root securemem.TrustedRoot
		err  error
	)
	if s.round == 0 {
		root, err = s.cfg.Source.FullCheckpoint(s.journal)
	} else {
		root, err = s.cfg.Source.Checkpoint(s.journal)
	}
	if err != nil {
		return fmt.Errorf("migrate: source checkpoint: %w", err)
	}
	start := s.framed
	delta := s.store.Tail(start)
	s.lastDelta = len(delta)
	s.framed = s.store.Len()

	s.round++
	hdr := make([]byte, 20)
	putU32(hdr[0:], s.round)
	putU64(hdr[4:], root.Epoch)
	putU64(hdr[12:], uint64(len(delta)))
	s.enqueue(frameRound, hdr)
	for off := 0; off < len(delta); off += s.cfg.ChunkSize {
		end := off + s.cfg.ChunkSize
		if end > len(delta) {
			end = len(delta)
		}
		var at [8]byte
		putU64(at[:], uint64(start+off))
		s.enqueue(frameChunk, at[:], delta[off:end])
	}
	s.enqueue(frameCommit, root.MarshalBinary())
	if !final {
		return s.drain()
	}
	return nil
}

// cutover runs the final sync round and the cutover record. The caller
// quiesces the source (via Swapper or by not writing); the digest in
// the cutover record is the attested byte-state the destination must
// reproduce.
func (s *Session) cutover() error {
	if err := s.drain(); err != nil {
		return err
	}
	if err := s.syncRound(true); err != nil {
		return err
	}
	digest := s.cfg.Source.StateDigest()
	s.enqueue(frameCutover, digest[:])
	if err := s.drain(); err != nil {
		return err
	}
	s.ops.Rounds = uint64(s.round)
	s.done = true
	return nil
}

// enqueue seals one frame, whose payload is the concatenation of the
// given parts, at the current chain position and queues it for
// delivery. Sealing order fixes stream order; delivery may be
// interrupted and resumed without re-sealing.
func (s *Session) enqueue(typ byte, payload ...[]byte) {
	s.queue = append(s.queue, s.ch.seal(typ, payload...))
}

// drain delivers queued frames in order: each one crosses the link
// (with capped-backoff retry) and is fed to the destination endpoint.
// A link loss parks the queue for resume; a receiver rejection is
// terminal and typed.
func (s *Session) drain() error {
	for len(s.queue) > 0 {
		f := s.queue[0]
		if err := s.transfer(); err != nil {
			s.lost = true
			return err
		}
		wire := f
		if s.cfg.Tap != nil {
			if mutated := s.cfg.Tap(s.delivered, f); mutated != nil {
				wire = mutated
			}
			s.delivered++
		}
		if err := s.recv.Feed(wire); err != nil {
			return s.fail(err)
		}
		s.queue = s.queue[1:]
		s.ops.BytesStreamed += uint64(len(f))
		if f[2] == frameChunk {
			s.ops.ChunksSent++
		}
	}
	return nil
}

// transfer carries one record across the link, retrying refusals with
// capped backoff charged to the sim clock. Exhaustion is ErrLinkLost:
// resumable, source intact.
func (s *Session) transfer() error {
	if s.cfg.Link == nil {
		return nil
	}
	for attempt := 0; ; attempt++ {
		lat, err := s.cfg.Link.Transfer()
		if err == nil {
			if s.cfg.Clock != nil && lat > 0 {
				s.cfg.Clock.Advance(lat)
			}
			return nil
		}
		if attempt >= s.cfg.Retry.MaxRetries {
			return fmt.Errorf("%w: %d retries exhausted: %v", ErrLinkLost, attempt, err)
		}
		s.ops.Retries++
		if d := s.cfg.Retry.backoff(attempt); d > 0 && s.cfg.Clock != nil {
			s.cfg.Clock.Advance(d)
		}
	}
}

// Run is the one-shot entry point: handshake, sync, cutover. The
// returned counters are valid on error too — campaigns assert typed
// rejections through them.
func Run(cfg Config) (stats.MigrateOps, error) {
	s, err := Start(cfg)
	if err != nil {
		ops := stats.MigrateOps{}
		if cfg.Source != nil {
			ops.Tenant = cfg.Source.ID()
		}
		classify(&ops, err)
		return ops, err
	}
	err = s.Run()
	return s.Ops(), err
}

// classify counts one typed failure into the rejection counters.
func classify(ops *stats.MigrateOps, err error) {
	switch {
	case errors.Is(err, ErrTornStream):
		ops.Torn++
	case errors.Is(err, ErrReplay):
		ops.Replay++
	case errors.Is(err, ErrAttestation):
		ops.Attest++
	case errors.Is(err, ErrFreshness):
		ops.Fresh++
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
