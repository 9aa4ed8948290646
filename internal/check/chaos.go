package check

import (
	"errors"

	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/securemem"
)

// Chaos mode: the differential replay runs with every securemem target
// armed with a deterministic fault injector, and the equivalence oracle is
// weakened exactly as far as the declared fault plan allows — no further:
//
//   - Under a recoverable-only plan (transient link faults within the
//     retry budget), nothing is allowed to change: every in-range op must
//     succeed and return byte-identical oracle plaintext, end to end.
//   - Under an unrecoverable plan, an in-range op may fail, but only with
//     a typed fault error (ErrTransient or ErrPoison). A failed write may
//     have half-applied, so its bytes become ambiguous in that target's
//     oracle: each must read back as its old value or the value written,
//     and every other byte must still match exactly. A read that covers a
//     range the target itself reports as quarantined must never succeed. A divergence outside those carve-outs — a silent plaintext
//     mismatch, an untyped error, served bytes from a poisoned range — is
//     a Failure and shrinks to a reproducer like any other bug.

// FaultPlan arms every securemem-backed target of a replay with a fault
// injector. Injection is deterministic per sequence: New is called once
// per target with the sequence's seed, so a shrunk reproducer replays the
// same fault schedule.
type FaultPlan struct {
	// New builds a fresh injector for one target.
	New func(seed int64) fault.Injector
	// Policy is the retry policy attached alongside the injector; the
	// zero value means securemem.DefaultRetryPolicy.
	Policy securemem.RetryPolicy
	// Unrecoverable declares that the plan may emit uncorrectable faults.
	// It widens the oracle as described above; a plan that injects poison
	// without declaring it is itself caught as a Failure.
	Unrecoverable bool
}

// ChaosConfig returns cfg armed with the standard chaos fault plan: a
// seeded rate injector with burst-bounded transients that always fit the
// retry budget, plus — when unrecoverable — rare uncorrectable media
// errors on both tiers. GoTest emits reproducers in terms of this plan.
func ChaosConfig(cfg Config, unrecoverable bool) Config {
	rates := fault.Rates{Transient: 0.02}
	if unrecoverable {
		rates.Poison = 0.0008
		rates.StuckBit = 0.0004
	}
	cfg.Fault = &FaultPlan{
		New:           func(seed int64) fault.Injector { return fault.NewRatePlan(seed, rates, 3) },
		Policy:        securemem.RetryPolicy{MaxRetries: 4, BaseBackoff: 8, MaxBackoff: 64},
		Unrecoverable: unrecoverable,
	}
	return cfg
}

// faultErr reports whether err is (or wraps) one of the typed fault
// sentinels an armed target is allowed to surface.
func faultErr(err error) bool {
	return errors.Is(err, securemem.ErrTransient) || errors.Is(err, securemem.ErrPoison)
}

// faultStateReporter is the optional Target extension chaos mode uses to
// assert quarantine semantics and to sum fault stats into Result.Faults. Targets that
// do not implement it (e.g. the plain oracle-like test targets) are held
// to the plain byte-equivalence rules only.
type faultStateReporter interface {
	PoisonedRange(addr uint64, n int) bool
	FaultStats() securemem.OpStats
}
