package hpcc

import (
	"testing"
	"testing/quick"

	"bfc/internal/packet"
	"bfc/internal/units"
)

func params() Params { return Params{LineRate: 100 * units.Gbps, BaseRTT: 8 * units.Microsecond} }

// newController returns a controller set up by Init.
func newController(p Params) *Controller {
	c := new(Controller)
	c.Init(p)
	return c
}

// bdp for the default params: 100 Gbps * 8 us = 100000 bytes.
const bdp = units.Bytes(100000)

func TestValidation(t *testing.T) {
	if err := params().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.LineRate = 0 },
		func(p *Params) { p.BaseRTT = 0 },
	}
	for i, mutate := range cases {
		p := params()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	bad := params()
	bad.BaseRTT = -1
	assertPanics(t, func() { newController(bad) })
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

// TestAdditiveIncreaseFloor: a path whose BDP is under 200 B still probes
// by 1 B per adjustment.
func TestAdditiveIncreaseFloor(t *testing.T) {
	c := newController(Params{LineRate: units.Gbps, BaseRTT: units.Nanosecond})
	if c.wai != 1 {
		t.Fatalf("additive increase on a %v BDP = %v, want 1", units.BDP(units.Gbps, units.Nanosecond), c.wai)
	}
}

func TestInitialWindowIsOneBDP(t *testing.T) {
	c := newController(params())
	if c.Window() != bdp {
		t.Fatalf("initial window = %v, want %v", c.Window(), bdp)
	}
	if c.wai != bdp/200 {
		t.Fatalf("additive increase = %v, want BDP/200 = %v", c.wai, bdp/200)
	}
	// Pacing rate W/T equals the line rate initially.
	if r := c.Rate(); r < 99*units.Gbps || r > 101*units.Gbps {
		t.Fatalf("initial pacing rate = %v, want ~100Gbps", r)
	}
}

// intStack builds a single-hop INT stack with the given queue length and a tx
// rate that is fraction busy of the link.
func intStack(ts units.Time, qlen units.Bytes, txBytes units.Bytes) []packet.INTHop {
	return []packet.INTHop{{QLen: qlen, TxBytes: txBytes, Rate: 100 * units.Gbps, TS: ts}}
}

func TestCongestedLinkShrinksWindow(t *testing.T) {
	c := newController(params())
	// First ACK establishes the telemetry baseline.
	c.OnAck(0, 1000, false, intStack(0, 0, 0))
	w0 := c.Window()
	// Heavily congested: queue of 3 BDP and the link fully busy over 10 us.
	hops := intStack(10*units.Microsecond, 3*bdp, 125000)
	if u := c.measureUtilization(hops); u <= 1 {
		t.Fatalf("utilization = %v, want > 1 for a congested link", u)
	}
	c.OnAck(10*units.Microsecond, 1000, false, hops)
	if c.Window() >= w0 {
		t.Fatalf("window did not shrink under congestion: %v >= %v", c.Window(), w0)
	}
	if c.Window() < minWindow {
		t.Fatal("window fell below the floor")
	}
}

func TestIdleLinkGrowsWindowToCap(t *testing.T) {
	p := params()
	c := newController(p)
	// Shrink first.
	c.OnAck(0, 1000, false, intStack(0, 0, 0))
	c.OnAck(10*units.Microsecond, 1000, false, intStack(10*units.Microsecond, 5*bdp, 125000))
	shrunk := c.Window()
	if shrunk >= bdp {
		t.Fatal("setup: window should have shrunk")
	}
	// Now the link is idle: window recovers, but never exceeds 1 BDP.
	now := 20 * units.Microsecond
	tx := units.Bytes(125000)
	for i := 0; i < 5000; i++ {
		now += 8 * units.Microsecond
		tx += 100 // nearly idle link
		c.OnAck(now, 1000, false, intStack(now, 0, tx))
	}
	if c.Window() <= shrunk {
		t.Fatalf("window did not recover: %v", c.Window())
	}
	if c.Window() > bdp {
		t.Fatalf("window exceeded 1 BDP: %v", c.Window())
	}
}

func TestMultiHopUsesMostCongestedLink(t *testing.T) {
	c := newController(params())
	hops0 := []packet.INTHop{
		{QLen: 0, TxBytes: 0, Rate: 100 * units.Gbps, TS: 0},
		{QLen: 0, TxBytes: 0, Rate: 100 * units.Gbps, TS: 0},
	}
	c.OnAck(0, 1000, false, hops0)
	// Hop 0 idle, hop 1 congested.
	hops1 := []packet.INTHop{
		{QLen: 0, TxBytes: 1000, Rate: 100 * units.Gbps, TS: 10 * units.Microsecond},
		{QLen: 2 * bdp, TxBytes: 125000, Rate: 100 * units.Gbps, TS: 10 * units.Microsecond},
	}
	if u := c.measureUtilization(hops1); u < 2 {
		t.Fatalf("max-link utilization = %v, want >= 2 (driven by the congested hop)", u)
	}
}

func TestAckWithoutINTIsIgnored(t *testing.T) {
	c := newController(params())
	w0 := c.Window()
	c.OnAck(0, 1000, false, nil)
	c.OnCNP(0)
	if c.Window() != w0 {
		t.Fatal("window changed without telemetry")
	}
	if len(c.prev) != 0 {
		t.Fatal("telemetry recorded from an ACK without INT")
	}
}

// Property: the window always stays within [MinWindow, 1 BDP] for arbitrary
// telemetry sequences.
func TestWindowBoundsProperty(t *testing.T) {
	prop := func(qlens []uint32, dts []uint8) bool {
		c := newController(params())
		now := units.Time(0)
		var tx units.Bytes
		for i, q := range qlens {
			dt := units.Time(10) * units.Microsecond
			if i < len(dts) {
				dt = units.Time(dts[i]%50+1) * units.Microsecond
			}
			now += dt
			tx += units.Bytes(q % 200000)
			c.OnAck(now, 1000, false, intStack(now, units.Bytes(q%500000), tx))
			if c.Window() < minWindow || c.Window() > bdp {
				return false
			}
			if c.Rate() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
