package migrate

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
)

// Stream frame layout, reusing the crash journal's framing discipline
// (magic + length + CRC sealing every record edge) and adding the
// transport-security layer a cross-host stream needs: a keyed MAC over
// a running hash chain, so a frame verifies only in its exact position
// in this exact session.
//
//	offset  size  field
//	0       2     magic "SM"
//	2       1     type
//	3       4     seq   (LE, position in the session stream)
//	7       4     plen  (LE, payload length)
//	11      plen  payload
//	11+plen 4     CRC32-IEEE over bytes [2, 11+plen)
//	15+plen 32    HMAC-SHA256(key, chain || bytes [2, 11+plen))
//
// The CRC is the accident detector (truncation, bit flips fail
// ErrTornStream before any crypto runs); the seq is the ordering
// detector (reorder and duplication fail ErrReplay); the MAC is the
// adversary detector (forgery and splicing fail ErrAttestation). The
// chain value advances per frame as SHA-256(chain || mac), seeded from
// the attestation transcript, so a frame recorded from another session
// — or from earlier in this one — can never verify even if its seq is
// patched: its MAC was computed over a different chain state.
const (
	frameMagic0    = 'S'
	frameMagic1    = 'M'
	frameHeaderLen = 11
	frameCRCLen    = 4
	frameMACLen    = 32
	frameOverhead  = frameHeaderLen + frameCRCLen + frameMACLen

	// maxFramePayload bounds a declared payload so a hostile length
	// field cannot drive allocation; streams chunk well below this.
	maxFramePayload = 1 << 20
)

// Frame types carried by the stream, in protocol order.
const (
	// frameRound opens one sync round: round number, source epoch, and
	// the byte length of this round's journal delta.
	frameRound byte = 1 + iota
	// frameChunk carries one contiguous span of the round's journal
	// delta: a stream-wide byte offset followed by the bytes.
	frameChunk
	// frameCommit closes a round with the round's marshalled
	// TrustedRoot — the lineage record freshness is judged against.
	frameCommit
	// frameCutover ends the session: the source's quiesced state digest
	// the destination must reproduce after applying the journal.
	frameCutover
)

// chain is one endpoint's half of the MAC chain. Source and receiver
// each hold one, seeded identically from the handshake transcript, and
// advance them in lockstep — frame n's MAC is bound to the MACs of
// every frame before it. The keyed HMAC state is built once per chain
// and Reset per frame.
type chain struct {
	mac  hash.Hash
	link [32]byte
	seq  uint32
}

func newChain(key []byte, seed [32]byte) *chain {
	return &chain{mac: hmac.New(sha256.New, key), link: seed}
}

// tag computes the frame MAC over the chain state and body into dst.
func (c *chain) tag(dst, body []byte) []byte {
	c.mac.Reset()
	c.mac.Write(c.link[:])
	c.mac.Write(body)
	return c.mac.Sum(dst)
}

// seal encodes and authenticates one frame, whose payload is the
// concatenation of parts, at the chain's current position and advances
// the chain.
func (c *chain) seal(typ byte, parts ...[]byte) []byte {
	plen := 0
	for _, p := range parts {
		plen += len(p)
	}
	f := make([]byte, frameOverhead+plen)
	f[0], f[1], f[2] = frameMagic0, frameMagic1, typ
	binary.LittleEndian.PutUint32(f[3:7], c.seq)
	binary.LittleEndian.PutUint32(f[7:11], uint32(plen))
	off := frameHeaderLen
	for _, p := range parts {
		off += copy(f[off:], p)
	}
	body := f[2 : frameHeaderLen+plen]
	binary.LittleEndian.PutUint32(f[frameHeaderLen+plen:], crc32.ChecksumIEEE(body))
	tagAt := frameHeaderLen + plen + frameCRCLen
	c.tag(f[tagAt:tagAt], body)
	c.advance(f[tagAt:])
	return f
}

// open verifies one frame at the chain's current position and returns
// its type and payload, advancing the chain only on success. The check
// order is the typed-failure taxonomy: structural damage (length,
// magic, CRC) fails ErrTornStream; a frame out of position fails
// ErrReplay; a MAC mismatch — an adversary, not an accident — fails
// ErrAttestation. The payload is aliased into frame, not copied.
func (c *chain) open(frame []byte) (byte, []byte, error) {
	if len(frame) < frameOverhead {
		return 0, nil, fmt.Errorf("%w: frame %d bytes, want >= %d", ErrTornStream, len(frame), frameOverhead)
	}
	if frame[0] != frameMagic0 || frame[1] != frameMagic1 {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrTornStream, frame[:2])
	}
	plen := binary.LittleEndian.Uint32(frame[7:11])
	if plen > maxFramePayload || len(frame) != frameOverhead+int(plen) {
		return 0, nil, fmt.Errorf("%w: frame %d bytes for declared payload %d", ErrTornStream, len(frame), plen)
	}
	body := frame[2 : frameHeaderLen+plen]
	if got := binary.LittleEndian.Uint32(frame[frameHeaderLen+plen:]); got != crc32.ChecksumIEEE(body) {
		return 0, nil, fmt.Errorf("%w: CRC mismatch on frame seq %d", ErrTornStream, binary.LittleEndian.Uint32(frame[3:7]))
	}
	if seq := binary.LittleEndian.Uint32(frame[3:7]); seq != c.seq {
		return 0, nil, fmt.Errorf("%w: frame seq %d at stream position %d", ErrReplay, seq, c.seq)
	}
	tag := frame[frameHeaderLen+plen+frameCRCLen:]
	var want [frameMACLen]byte
	if !hmac.Equal(tag, c.tag(want[:0], body)) {
		return 0, nil, fmt.Errorf("%w: frame seq %d MAC mismatch", ErrAttestation, c.seq)
	}
	c.advance(tag)
	return frame[2], frame[frameHeaderLen : frameHeaderLen+plen], nil
}

// advance folds a verified frame's MAC into the chain.
func (c *chain) advance(tag []byte) {
	var in [32 + frameMACLen]byte
	copy(in[:32], c.link[:])
	copy(in[32:], tag)
	c.link = sha256.Sum256(in[:])
	c.seq++
}
