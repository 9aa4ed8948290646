package securemem

import (
	"errors"
	"fmt"

	"github.com/salus-sim/salus/internal/config"
)

// Backing is externally owned storage for the two memory tiers. A bare
// New allocates its own stores; supplying a Backing instead lets several
// engines share one physical allocation — the multi-tenant pool carves
// one CXL home buffer and one device buffer into per-tenant slices and
// hands each tenant engine its own disjoint window. The engine treats
// the provided memory exactly like its own: it zeroes both tiers on New
// (the initial-encryption pass assumes zero plaintext) and never reads
// or writes a byte outside the slices it was given. Recover and Resume
// write the slices only once the restored state has verified, so a
// refused restore leaves them exactly as it found them.
//
// The caller owns the disjointness contract: two engines handed
// overlapping windows would silently corrupt each other. The tenant
// pool's slice validation (internal/tenant) is the layer that enforces
// non-overlap before any engine is built.
type Backing struct {
	// Home is the CXL home-tier store; it must hold exactly
	// TotalPages*PageSize bytes for the Config it backs.
	Home []byte
	// Device is the device-tier store; it must hold exactly
	// DevicePages*PageSize bytes for the Config it backs.
	Device []byte
}

// ErrBacking reports a Backing whose slice sizes disagree with the
// configuration they are supposed to back.
var ErrBacking = errors.New("securemem: backing store sizes do not match configuration")

// NewBacking allocates a shared backing for totalPages home pages and
// devicePages device frames under the given geometry.
func NewBacking(geo config.Geometry, totalPages, devicePages int) *Backing {
	return &Backing{
		Home:   make([]byte, totalPages*geo.PageSize),
		Device: make([]byte, devicePages*geo.PageSize),
	}
}

// Window returns the sub-backing covering homePage..homePage+pages of
// the home tier and frame..frame+frames of the device tier. Bounds are
// the caller's responsibility (a tenant pool validates slices before
// carving); out-of-range windows panic like any slice expression.
func (b *Backing) Window(geo config.Geometry, homePage, pages, frame, frames int) *Backing {
	ps := geo.PageSize
	return &Backing{
		Home:   b.Home[homePage*ps : (homePage+pages)*ps : (homePage+pages)*ps],
		Device: b.Device[frame*ps : (frame+frames)*ps : (frame+frames)*ps],
	}
}

// validateBacking checks a provided backing against the configuration.
func (c Config) validateBacking() error {
	b := c.Backing
	if b == nil {
		return nil
	}
	if want := c.TotalPages * c.Geometry.PageSize; len(b.Home) != want {
		return fmt.Errorf("%w: home store %d bytes, want %d", ErrBacking, len(b.Home), want)
	}
	if want := c.DevicePages * c.Geometry.PageSize; len(b.Device) != want {
		return fmt.Errorf("%w: device store %d bytes, want %d", ErrBacking, len(b.Device), want)
	}
	return nil
}
