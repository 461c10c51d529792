package units

import (
	"testing"
	"testing/quick"
)

func TestSerializationTimeExact(t *testing.T) {
	cases := []struct {
		size Bytes
		rate Rate
		want Time
	}{
		{size: 1, rate: 100 * Gbps, want: 80 * Picosecond},
		{size: 1000, rate: 100 * Gbps, want: 80 * Nanosecond},
		{size: 1000, rate: 10 * Gbps, want: 800 * Nanosecond},
		{size: 1000, rate: 40 * Gbps, want: 200 * Nanosecond},
		{size: 1000, rate: 25 * Gbps, want: 320 * Nanosecond},
		{size: 1500, rate: 100 * Gbps, want: 120 * Nanosecond},
		{size: 0, rate: 100 * Gbps, want: 0},
		{size: 12 * MB, rate: 100 * Gbps, want: Time(12 * 1 << 20 * 80)},
	}
	for _, c := range cases {
		if got := SerializationTime(c.size, c.rate); got != c.want {
			t.Errorf("SerializationTime(%v, %v) = %v, want %v", c.size, c.rate, got, c.want)
		}
	}
}

func TestSerializationTimeRoundsUp(t *testing.T) {
	// 1 byte at 3 bps: 8/3 s = 2.666..s must round up to ceil.
	got := SerializationTime(1, 3)
	want := Time(8*int64(Second)/3 + 1)
	if got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestSerializationTimePanics(t *testing.T) {
	assertPanics(t, func() { SerializationTime(1, 0) })
	assertPanics(t, func() { SerializationTime(-1, Gbps) })
	assertPanics(t, func() { BytesInFlight(Gbps, -1) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

func TestBDP(t *testing.T) {
	// 100 Gbps, 8 us RTT -> 100e9/8 * 8e-6 = 100000 bytes.
	if got := BDP(100*Gbps, 8*Microsecond); got != 100000 {
		t.Fatalf("BDP = %d, want 100000", got)
	}
	// 10 Gbps, 400 us -> 500000 bytes.
	if got := BDP(10*Gbps, 400*Microsecond); got != 500000 {
		t.Fatalf("BDP = %d, want 500000", got)
	}
	if got := BDP(100*Gbps, 0); got != 0 {
		t.Fatalf("BDP of zero delay = %d, want 0", got)
	}
}

func TestRateFromBytes(t *testing.T) {
	// 100000 bytes in 8 us is 100 Gbps.
	if got := RateFromBytes(100000, 8*Microsecond); got != 100*Gbps {
		t.Fatalf("RateFromBytes = %v, want 100Gbps", got)
	}
	if got := RateFromBytes(100, 0); got != 0 {
		t.Fatalf("RateFromBytes with zero duration = %v, want 0", got)
	}
}

func TestConversions(t *testing.T) {
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Errorf("Microseconds() = %v, want 2.5", got)
	}
	if got := (Second).Seconds(); got != 1.0 {
		t.Errorf("Seconds() = %v, want 1", got)
	}
}

func TestStringFormatting(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Time(0).String(), "0"},
		{(2 * Second).String(), "2s"},
		{(1500 * Microsecond).String(), "1.500ms"},
		{(12 * Microsecond).String(), "12.000us"},
		{(80 * Nanosecond).String(), "80.000ns"},
		{Time(7).String(), "7ps"},
		{(100 * Gbps).String(), "100Gbps"},
		{(40 * Mbps).String(), "40Mbps"},
		{(64 * Kbps).String(), "64Kbps"},
		{Rate(7).String(), "7bps"},
		{(12 * MB).String(), "12MB"},
		{(100 * KB).String(), "100KB"},
		{Bytes(77).String(), "77B"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

// Property: serialization time is monotone in size and inverse-monotone in
// rate, and BytesInFlight(r, SerializationTime(b, r)) >= b (round-up).
func TestSerializationProperties(t *testing.T) {
	rates := []Rate{10 * Gbps, 25 * Gbps, 40 * Gbps, 100 * Gbps, 400 * Gbps}
	prop := func(rawSize uint32, rateIdx uint8) bool {
		size := Bytes(rawSize % 10_000_000)
		r := rates[int(rateIdx)%len(rates)]
		st := SerializationTime(size, r)
		if st < 0 {
			return false
		}
		if SerializationTime(size+1, r) < st {
			return false
		}
		// Transmitting for st at rate r must cover at least size bytes.
		return BytesInFlight(r, st) >= size-1 // float truncation allowance
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization time is additive: time(a)+time(b) >= time(a+b) and
// differs by at most 1 ps (round-up happens at most once extra).
func TestSerializationAdditive(t *testing.T) {
	prop := func(a, b uint16, rateGbps uint8) bool {
		r := Rate(int64(rateGbps%100)+1) * Gbps
		ta := SerializationTime(Bytes(a), r)
		tb := SerializationTime(Bytes(b), r)
		tab := SerializationTime(Bytes(a)+Bytes(b), r)
		return ta+tb >= tab && ta+tb-tab <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
