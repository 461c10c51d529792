package fleet

import (
	"time"

	"bfc/internal/harness"
	"bfc/internal/packet"
)

// Backoff returns the pause before retry attempt (0-based): base doubled per
// attempt, capped at max, scaled by a deterministic jitter factor in
// [0.5, 1.0) drawn from element attempt of seed's splitmix64 stream (the
// counter-based construction the streaming sketch draws from). Deterministic
// jitter keeps the schedule unit-testable and reproducible from logs, yet
// still decorrelates peers: two requests with different seeds (bfcctl derives
// them from the request ID, the coordinator from the batch ID) back off on
// different schedules, so a thundering herd restarting against a recovering
// coordinator spreads out instead of reconverging.
func Backoff(attempt int, base, max time.Duration, seed uint64) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	x := packet.Mix64(seed + uint64(attempt)*packet.Gamma)
	frac := 0.5 + float64(x>>11)/float64(1<<53)*0.5 // [0.5, 1.0)
	return time.Duration(float64(d) * frac)
}

// Seed derives a backoff seed from an identifier string (a batch ID, a
// request path); it reuses the harness seed derivation so equal IDs always
// yield equal schedules.
func Seed(id string) uint64 {
	return uint64(harness.DeriveSeed(id))
}
