// Package units defines the time, rate, and size units used throughout the
// simulator.
//
// Simulation time is kept as an integer number of picoseconds so that every
// byte serialization time at the data-center link speeds that matter here
// (10, 25, 40, 100, 200, 400 Gbps) is an exact integer. This keeps runs
// bit-for-bit deterministic and avoids the event-ordering ambiguity that
// floating-point time introduces.
package units

import (
	"fmt"
	mathbits "math/bits"
)

// Time is an absolute simulation time or a duration, in picoseconds.
type Time int64

// Common durations expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Rate is a link or flow rate in bits per second.
type Rate int64

// Common rates.
const (
	Kbps Rate = 1000
	Mbps Rate = 1000 * Kbps
	Gbps Rate = 1000 * Mbps
)

// Bytes is a size in bytes.
type Bytes int64

// Common sizes. Sizes use binary prefixes to match switch buffer sizing
// conventions (a "12 MB" Tomahawk buffer is 12*2^20 bytes).
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
)

// Seconds converts a duration to floating-point seconds (for reporting only;
// never used to drive the event loop).
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds converts a duration to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKbps", r/Kbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// String formats the size with an adaptive unit.
func (b Bytes) String() string {
	switch {
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dMB", b/MB)
	case b >= KB && b%KB == 0:
		return fmt.Sprintf("%dKB", b/KB)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// SerializationTime returns the time needed to put size bytes on the wire at
// rate r. It rounds up to the next picosecond so that back-to-back
// transmissions never overlap.
func SerializationTime(size Bytes, r Rate) Time {
	if r <= 0 {
		panic("units: non-positive rate")
	}
	if size < 0 {
		panic("units: negative size")
	}
	// ps = bits * 1e12 / rate, rounded up. The product overflows int64 for
	// sizes above ~1 MB, so use a 128-bit intermediate.
	nbits := uint64(size) * 8
	hi, lo := mathbits.Mul64(nbits, uint64(Second))
	if hi >= uint64(r) {
		panic("units: serialization time overflows (size too large for rate)")
	}
	q, rem := mathbits.Div64(hi, lo, uint64(r))
	if rem > 0 {
		q++
	}
	return Time(q)
}

// BytesInFlight returns the number of bytes transmitted at rate r during d
// (rounded down); i.e. the bandwidth-delay product for delay d.
func BytesInFlight(r Rate, d Time) Bytes {
	if d < 0 {
		panic("units: negative duration")
	}
	// bytes = rate * seconds / 8. Delays passed here are RTT-scale (at most a
	// few hundred milliseconds), so float64 is exact to well under a byte for
	// any realistic rate; the result is truncated toward zero.
	bytes := float64(r) / 8 * d.Seconds()
	return Bytes(bytes)
}

// BDP returns the bandwidth-delay product (in bytes) of a path with rate r
// and round-trip time rtt.
func BDP(r Rate, rtt Time) Bytes { return BytesInFlight(r, rtt) }

// RateFromBytes returns the average rate achieved by transferring size bytes
// in duration d. Returns 0 when d is 0.
func RateFromBytes(size Bytes, d Time) Rate {
	if d <= 0 {
		return 0
	}
	bits := float64(size) * 8
	return Rate(bits / d.Seconds())
}
