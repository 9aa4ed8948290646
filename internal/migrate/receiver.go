package migrate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/tenant"
)

// Receiver is the destination endpoint of one migration session. It
// verifies and buffers the stream but applies nothing until the cutover
// record verifies end to end — so a session aborted at any record
// boundary, for any reason, leaves the destination tenant exactly as it
// was. The receiver is fail-stop: the first typed rejection poisons the
// session and every later Feed returns the same error, which is what
// keeps an attacker from probing one stream position at a time.
type Receiver struct {
	pool  *tenant.Pool
	id    string
	key   []byte
	nonce [32]byte

	ch    *chain
	floor uint64 // lineage floor: newest epoch this destination trusts

	// maxDelta bounds a round's declared journal delta: the largest
	// checkpoint epoch the destination tenant's own slice can produce.
	// The declared length sizes the round's buffer growth, so it is
	// judged against the destination's size, never the source's word.
	maxDelta uint64

	buf       []byte // verified journal bytes, applied only at cutover
	expect    int    // buf length the open round must reach
	roundOpen bool
	lastRound uint32
	lastRoot  securemem.TrustedRoot
	haveRoot  bool

	done   bool
	failed error
	ops    stats.MigrateOps
}

// NewReceiver prepares the destination endpoint for tenant id on pool.
// The nonce is the session-uniqueness secret the destination
// contributes to the handshake; campaigns derive it from the seed.
func NewReceiver(pool *tenant.Pool, id string, nonce [32]byte) (*Receiver, error) {
	if pool == nil {
		return nil, fmt.Errorf("%w: destination pool required", ErrConfig)
	}
	t, err := pool.Tenant(id)
	if err != nil {
		return nil, err
	}
	key, err := t.MigrationKey()
	if err != nil {
		return nil, err
	}
	return &Receiver{
		pool:     pool,
		id:       id,
		key:      key,
		nonce:    nonce,
		maxDelta: securemem.MaxCheckpointBytes(pool.Geometry(), t.Pages()),
		ops:      stats.MigrateOps{Tenant: id},
	}, nil
}

// Accept judges the source's offer and, if it attests, returns the
// destination's half of the handshake and seeds the session MAC chain.
// A measurement mismatch is ErrAttestation; a source whose lineage is
// at or behind this destination's is ErrFreshness — replaying an old
// session's stream onto a destination that has since moved on is the
// rollback attack, refused before a single frame.
func (r *Receiver) Accept(offer Offer) (Accept, error) {
	t, err := r.pool.Tenant(r.id)
	if err != nil {
		return Accept{}, err
	}
	mine := Measure(r.pool, t)
	if err := checkMeasurements(offer.Measurement, mine); err != nil {
		r.failed = err
		r.classify(err)
		return Accept{}, err
	}
	if offer.Measurement.Epoch < mine.Epoch {
		err := fmt.Errorf("%w: source at epoch %d behind destination epoch %d",
			ErrFreshness, offer.Measurement.Epoch, mine.Epoch)
		r.failed = err
		r.classify(err)
		return Accept{}, err
	}
	acc := Accept{Measurement: mine, Nonce: r.nonce}
	r.floor = mine.Epoch
	r.ch = newChain(r.key, chainSeed(r.key, offer, acc))
	return acc, nil
}

// Feed verifies one stream frame at the current position and absorbs
// it. Every refusal is typed per the taxonomy in the package doc and
// poisons the session; no partial state is ever applied.
func (r *Receiver) Feed(frame []byte) error {
	if r.failed != nil {
		return r.failed
	}
	if r.ch == nil {
		return fmt.Errorf("%w: stream before handshake", ErrAttestation)
	}
	if r.done {
		return r.poison(fmt.Errorf("%w: frame after cutover", ErrReplay))
	}
	typ, payload, err := r.ch.open(frame)
	if err != nil {
		return r.poison(err)
	}
	switch typ {
	case frameRound:
		return r.feedRound(payload)
	case frameChunk:
		return r.feedChunk(payload)
	case frameCommit:
		return r.feedCommit(payload)
	case frameCutover:
		return r.feedCutover(payload)
	}
	return r.poison(fmt.Errorf("%w: unknown frame type %d", ErrTornStream, typ))
}

func (r *Receiver) feedRound(p []byte) error {
	if len(p) != 20 {
		return r.poison(fmt.Errorf("%w: round header %d bytes, want 20", ErrTornStream, len(p)))
	}
	if r.roundOpen {
		return r.poison(fmt.Errorf("%w: round header inside an open round", ErrTornStream))
	}
	round := binary.LittleEndian.Uint32(p[0:4])
	epoch := binary.LittleEndian.Uint64(p[4:12])
	dlen := binary.LittleEndian.Uint64(p[12:20])
	if round != r.lastRound+1 {
		return r.poison(fmt.Errorf("%w: round %d after round %d", ErrReplay, round, r.lastRound))
	}
	if epoch <= r.floor {
		return r.poison(fmt.Errorf("%w: round epoch %d at or below trusted epoch %d", ErrFreshness, epoch, r.floor))
	}
	if dlen > r.maxDelta {
		return r.poison(fmt.Errorf("%w: round delta %d bytes exceeds the %d-byte largest checkpoint of tenant %q",
			ErrTornStream, dlen, r.maxDelta, r.id))
	}
	r.lastRound = round
	r.expect = len(r.buf) + int(dlen)
	r.roundOpen = true
	// Grow once to the authenticated round length; the chunks then
	// append without reallocating.
	r.buf = slices.Grow(r.buf, int(dlen))
	return nil
}

func (r *Receiver) feedChunk(p []byte) error {
	if len(p) < 8 {
		return r.poison(fmt.Errorf("%w: chunk %d bytes, want >= 8", ErrTornStream, len(p)))
	}
	if !r.roundOpen {
		return r.poison(fmt.Errorf("%w: chunk outside a round", ErrTornStream))
	}
	off := binary.LittleEndian.Uint64(p[0:8])
	data := p[8:]
	if off != uint64(len(r.buf)) {
		return r.poison(fmt.Errorf("%w: chunk at offset %d, stream at %d", ErrTornStream, off, len(r.buf)))
	}
	if len(r.buf)+len(data) > r.expect {
		return r.poison(fmt.Errorf("%w: chunk overruns declared round delta", ErrTornStream))
	}
	r.buf = append(r.buf, data...)
	return nil
}

func (r *Receiver) feedCommit(p []byte) error {
	if !r.roundOpen {
		return r.poison(fmt.Errorf("%w: commit outside a round", ErrTornStream))
	}
	if len(r.buf) != r.expect {
		return r.poison(fmt.Errorf("%w: commit with %d of %d round bytes", ErrTornStream, len(r.buf), r.expect))
	}
	root, err := securemem.UnmarshalTrustedRoot(p)
	if err != nil {
		return r.poison(fmt.Errorf("%w: trusted root: %v", ErrTornStream, err))
	}
	if root.Epoch <= r.floor {
		return r.poison(fmt.Errorf("%w: commit epoch %d at or below trusted epoch %d", ErrFreshness, root.Epoch, r.floor))
	}
	r.floor = root.Epoch
	r.lastRoot = root
	r.haveRoot = true
	r.roundOpen = false
	return nil
}

func (r *Receiver) feedCutover(p []byte) error {
	if len(p) != 32 {
		return r.poison(fmt.Errorf("%w: cutover digest %d bytes, want 32", ErrTornStream, len(p)))
	}
	if r.roundOpen || !r.haveRoot {
		return r.poison(fmt.Errorf("%w: cutover before a committed round", ErrTornStream))
	}
	// The single apply point: everything upstream verified, so rebuild
	// the tenant and hold it to the attested digest.
	if err := r.pool.RecoverTenant(r.id, r.buf, r.lastRoot); err != nil {
		return r.poison(mapRecoverErr(err))
	}
	t, err := r.pool.Tenant(r.id)
	if err != nil {
		return r.poison(err)
	}
	if got := t.StateDigest(); !bytes.Equal(got[:], p) {
		return r.poison(fmt.Errorf("%w: applied state digest does not match attested digest", ErrAttestation))
	}
	r.done = true
	return nil
}

// Done reports whether the cutover applied.
func (r *Receiver) Done() bool { return r.done }

// Ops returns the receiver's typed-rejection counters.
func (r *Receiver) Ops() stats.MigrateOps { return r.ops }

// poison records the first typed rejection and latches it.
func (r *Receiver) poison(err error) error {
	r.failed = err
	r.classify(err)
	return err
}

func (r *Receiver) classify(err error) {
	classify(&r.ops, err)
}

// mapRecoverErr folds the recovery layer's taxonomy into the stream's:
// journal damage that survived framing is still a torn stream; a stale
// journal or replayed tree metadata is still a rollback.
func mapRecoverErr(err error) error {
	switch {
	case errors.Is(err, crash.ErrRollback), errors.Is(err, securemem.ErrFreshness):
		return fmt.Errorf("%w: %v", ErrFreshness, err)
	case errors.Is(err, securemem.ErrIntegrity):
		return fmt.Errorf("%w: %v", ErrAttestation, err)
	default:
		return fmt.Errorf("%w: %v", ErrTornStream, err)
	}
}
