package dcqcn

import (
	"testing"
	"testing/quick"
	"unsafe"

	"bfc/internal/units"
)

func params() Params { return DefaultParams(100 * units.Gbps) }

func TestValidation(t *testing.T) {
	if err := params().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if err := (Params{LineRate: minRate, Window: units.KB}).Validate(); err != nil {
		t.Fatalf("line rate at the floor invalid: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.LineRate = 0 },
		func(p *Params) { p.LineRate = minRate - 1 },
	}
	for i, mutate := range cases {
		p := params()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	bad := params()
	bad.LineRate = 0
	assertPanics(t, func() { New(bad) })
}

// TestControllerSize: a simulation keeps one controller per DCQCN flow, so
// the record holds only what a flow varies (its line rate and window) and
// its state; the published parameters are package constants.
func TestControllerSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned on 64-bit platforms")
	}
	if n := unsafe.Sizeof(Controller{}); n != 88 {
		t.Fatalf("Controller is %d bytes, want 88: line rate, window, rc, rt, alpha, two stages, bytes since increase, two instants and haveCNP", n)
	}
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

func TestStartsAtLineRate(t *testing.T) {
	c := New(params())
	if c.Rate() != 100*units.Gbps {
		t.Fatalf("initial rate = %v, want line rate", c.Rate())
	}
	if c.Window() != 0 {
		t.Fatal("plain DCQCN should have no window cap")
	}
	p := params()
	p.Window = 100 * units.KB
	if New(p).Window() != 100*units.KB {
		t.Fatal("DCQCN+Win window cap not reported")
	}
}

func TestCNPReducesRate(t *testing.T) {
	c := New(params())
	c.OnCNP(100 * units.Microsecond)
	// First CNP with alpha=1 halves the rate.
	if c.Rate() != 50*units.Gbps {
		t.Fatalf("rate after first CNP = %v, want 50Gbps", c.Rate())
	}
	if c.rt != 100*units.Gbps {
		t.Fatalf("target rate should remember the pre-decrease rate")
	}
	if c.alpha <= 0 || c.alpha > 1 {
		t.Fatalf("alpha = %v out of range after a CNP", c.alpha)
	}
	// Repeated CNPs keep reducing but never below the floor.
	for i := 0; i < 200; i++ {
		c.OnCNP(units.Time(i) * 55 * units.Microsecond)
	}
	if c.Rate() < 100*units.Mbps {
		t.Fatalf("rate %v fell below the minimum", c.Rate())
	}
}

func TestRateRecoversAfterCongestionEnds(t *testing.T) {
	c := New(params())
	now := units.Time(0)
	c.OnCNP(now)
	reduced := c.Rate()
	// Time passes with ACKs and no CNPs: timer-driven recovery kicks in.
	for i := 1; i <= 2000; i++ {
		now += 10 * units.Microsecond
		c.OnAck(now, 1000, false, nil)
	}
	if c.Rate() <= reduced {
		t.Fatalf("rate did not recover: %v <= %v", c.Rate(), reduced)
	}
	if c.Rate() > 100*units.Gbps {
		t.Fatal("rate exceeded line rate")
	}
	// With enough time the rate returns to (close to) line rate.
	if c.Rate() < 90*units.Gbps {
		t.Fatalf("rate only recovered to %v after 20ms", c.Rate())
	}
}

func TestFastRecoveryHalvesTowardTarget(t *testing.T) {
	c := New(params())
	c.OnCNP(0)
	r0 := c.Rate()
	rt := c.rt
	// One timer period elapses -> one fast-recovery step: rc = (rc+rt)/2.
	c.OnAck(56*units.Microsecond, 1000, false, nil)
	want := (r0 + rt) / 2
	if c.Rate() != want {
		t.Fatalf("rate after one fast recovery = %v, want %v", c.Rate(), want)
	}
}

func TestByteCounterDrivesRecovery(t *testing.T) {
	c := New(params())
	c.OnCNP(0)
	reduced := c.Rate()
	// Send 20 MB quickly (less than one timer period): byte-counter stages
	// alone must raise the rate.
	for i := 0; i < 20; i++ {
		c.OnBytesSent(units.Time(i)*units.Microsecond, units.MB)
	}
	if c.Rate() <= reduced {
		t.Fatalf("byte counter did not drive recovery: %v", c.Rate())
	}
}

func TestAlphaDecaysWithoutCNPs(t *testing.T) {
	c := New(params())
	c.OnCNP(0)
	a0 := c.alpha
	c.OnAck(10*55*units.Microsecond, 1000, false, nil)
	if c.alpha >= a0 {
		t.Fatalf("alpha did not decay: %v >= %v", c.alpha, a0)
	}
}

func TestSecondCNPWithSmallAlphaCutsLess(t *testing.T) {
	c := New(params())
	c.OnCNP(0)
	rateAfterFirst := c.Rate()
	firstCut := float64(100*units.Gbps-rateAfterFirst) / float64(100*units.Gbps)
	// Let alpha decay a long time, recover the rate fully, then hit another CNP.
	now := units.Time(0)
	for i := 0; i < 5000; i++ {
		now += 20 * units.Microsecond
		c.OnAck(now, 1000, false, nil)
	}
	before := c.Rate()
	c.OnCNP(now)
	secondCut := float64(before-c.Rate()) / float64(before)
	if secondCut >= firstCut {
		t.Fatalf("second cut %.3f should be smaller than first %.3f (alpha decayed)", secondCut, firstCut)
	}
}

// Property: the rate always stays within [MinRate, LineRate] under any
// interleaving of CNPs, ACKs and sends with non-decreasing time.
func TestRateBoundsProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		c := New(params())
		now := units.Time(0)
		for _, op := range ops {
			now += units.Time(op%100) * units.Microsecond
			switch op % 3 {
			case 0:
				c.OnCNP(now)
			case 1:
				c.OnAck(now, 1000, false, nil)
			case 2:
				c.OnBytesSent(now, units.Bytes(op)*units.KB)
			}
			if c.Rate() < 100*units.Mbps || c.Rate() > 100*units.Gbps {
				return false
			}
			if c.alpha < 0 || c.alpha > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
