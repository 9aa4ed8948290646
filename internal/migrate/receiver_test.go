package migrate

import (
	"errors"
	"testing"

	"github.com/salus-sim/salus/internal/securemem"
)

// TestReceiverBoundsRoundDelta: the round header's declared delta sizes
// the receiver's buffer growth, so it is held to the largest checkpoint
// the destination tenant's own slice can produce. A MAC-valid header
// declaring more fails ErrTornStream; one at the bound opens the round
// with room for the whole delta.
func TestReceiverBoundsRoundDelta(t *testing.T) {
	src, dst := newPool(t, nil), newPool(t, nil)
	m := mustTenant(t, src, "m")
	bound := securemem.MaxCheckpointBytes(testGeometry(), m.Pages())
	for _, c := range []struct {
		dlen uint64
		ok   bool
	}{{bound, true}, {bound + 1, false}, {1 << 62, false}} {
		recv, err := NewReceiver(dst, "m", [32]byte{4})
		if err != nil {
			t.Fatal(err)
		}
		offer := Offer{Measurement: Measure(src, m)}
		acc, err := recv.Accept(offer)
		if err != nil {
			t.Fatal(err)
		}
		key, err := m.MigrationKey()
		if err != nil {
			t.Fatal(err)
		}
		sealer := newChain(key, chainSeed(key, offer, acc))
		hdr := make([]byte, 20)
		putU32(hdr[0:], 1)
		putU64(hdr[4:], 1)
		putU64(hdr[12:], c.dlen)
		err = recv.Feed(sealer.seal(frameRound, hdr))
		switch {
		case c.ok && err != nil:
			t.Fatalf("delta %d at the bound refused: %v", c.dlen, err)
		case c.ok && uint64(cap(recv.buf)) < c.dlen:
			t.Fatalf("round buffer holds %d bytes, want room for %d", cap(recv.buf), c.dlen)
		case !c.ok && !errors.Is(err, ErrTornStream):
			t.Fatalf("delta %d over the %d-byte bound: got %v, want ErrTornStream", c.dlen, bound, err)
		case !c.ok && recv.Ops().Torn != 1:
			t.Fatalf("oversized delta not counted torn: %+v", recv.Ops())
		}
	}
}
