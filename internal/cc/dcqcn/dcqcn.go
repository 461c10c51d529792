// Package dcqcn implements the DCQCN congestion control algorithm (Zhu et
// al., SIGCOMM 2015) as used by the paper's DCQCN and DCQCN+Win baselines.
//
// DCQCN is rate based: the receiver turns ECN marks into congestion
// notification packets (CNPs), and the sender reacts by multiplicatively
// decreasing its sending rate; in the absence of CNPs the rate recovers
// through fast recovery, additive increase, and hyper increase stages driven
// by a timer and a byte counter. Flows start at line rate, which is the
// behaviour the paper highlights as problematic for short flows.
package dcqcn

import (
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// Params are the DCQCN knobs. Defaults follow the published parameter set
// scaled to 100 Gbps links.
type Params struct {
	// LineRate is the host link rate; flows start at this rate and are never
	// paced above it.
	LineRate units.Rate
	// MinRate is the floor for the sending rate.
	MinRate units.Rate
	// G is the EWMA gain for alpha (1/256).
	G float64
	// AlphaResumeInterval is the alpha-decay timer period (55 us).
	AlphaResumeInterval units.Time
	// RateIncreaseTimer drives time-based rate recovery (55 us).
	RateIncreaseTimer units.Time
	// ByteCounter drives byte-based rate recovery (10 MB).
	ByteCounter units.Bytes
	// FastRecoveryStages before additive increase (5).
	FastRecoveryStages int
	// RateAI is the additive increase step.
	RateAI units.Rate
	// RateHAI is the hyper additive increase step.
	RateHAI units.Rate
	// CNPInterval is the receiver-side minimum gap between CNPs per flow
	// (50 us); exposed here so the NIC receiver and sender agree.
	CNPInterval units.Time
	// Window is an optional cap on bytes in flight (0 for plain DCQCN; one
	// base-RTT BDP for DCQCN+Win).
	Window units.Bytes
}

// DefaultParams returns the parameter set used in the evaluation for a given
// line rate.
func DefaultParams(lineRate units.Rate) Params {
	return Params{
		LineRate:            lineRate,
		MinRate:             100 * units.Mbps,
		G:                   1.0 / 256.0,
		AlphaResumeInterval: 55 * units.Microsecond,
		RateIncreaseTimer:   55 * units.Microsecond,
		ByteCounter:         10 * units.MB,
		FastRecoveryStages:  5,
		RateAI:              100 * units.Mbps,
		RateHAI:             units.Gbps,
		CNPInterval:         50 * units.Microsecond,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.LineRate <= 0 || p.MinRate <= 0 || p.MinRate > p.LineRate {
		return fmt.Errorf("dcqcn: invalid rates line=%v min=%v", p.LineRate, p.MinRate)
	}
	if p.G <= 0 || p.G > 1 {
		return fmt.Errorf("dcqcn: invalid g %v", p.G)
	}
	if p.AlphaResumeInterval <= 0 || p.RateIncreaseTimer <= 0 || p.ByteCounter <= 0 {
		return fmt.Errorf("dcqcn: non-positive timer/byte-counter")
	}
	if p.FastRecoveryStages <= 0 {
		return fmt.Errorf("dcqcn: FastRecoveryStages must be positive")
	}
	if p.RateAI <= 0 || p.RateHAI <= 0 {
		return fmt.Errorf("dcqcn: increase steps must be positive")
	}
	return nil
}

// Controller is the per-flow DCQCN sender state machine. It implements
// cc.Controller. The controller is clocked by the calls it receives (OnAck,
// OnCNP, OnBytesSent) plus explicit time: it does not own timers, so it can
// be driven deterministically by the NIC and by unit tests.
type Controller struct {
	p Params

	rc    units.Rate // current rate
	rt    units.Rate // target rate
	alpha float64

	// Rate-increase bookkeeping.
	timerStage     int
	byteStage      int
	bytesSinceInc  units.Bytes
	lastTimerFire  units.Time
	haveCNP        bool
	lastAlphaDecay units.Time
}

// New creates a controller with the flow starting at line rate.
func New(p Params) *Controller {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Controller{
		p:     p,
		rc:    p.LineRate,
		rt:    p.LineRate,
		alpha: 1,
	}
}

// Rate implements cc.Controller.
func (c *Controller) Rate() units.Rate { return c.rc }

// Window implements cc.Controller.
func (c *Controller) Window() units.Bytes { return c.p.Window }

// OnCNP applies the multiplicative decrease (called by the NIC when a CNP
// arrives for this flow).
func (c *Controller) OnCNP(now units.Time) {
	c.advanceAlpha(now)
	c.rt = c.rc
	c.rc = units.Rate(float64(c.rc) * (1 - c.alpha/2))
	if c.rc < c.p.MinRate {
		c.rc = c.p.MinRate
	}
	c.alpha = (1-c.p.G)*c.alpha + c.p.G
	c.haveCNP = true
	c.lastAlphaDecay = now
	// Reset the increase machinery.
	c.timerStage = 0
	c.byteStage = 0
	c.bytesSinceInc = 0
	c.lastTimerFire = now
}

// OnAck advances the clock; DCQCN itself does not react to ACKs beyond using
// them as a time source for its timer-driven recovery.
func (c *Controller) OnAck(now units.Time, ackedBytes units.Bytes, ecnEcho bool, _ []packet.INTHop) {
	c.advance(now)
}

// OnBytesSent informs the controller of transmitted bytes, driving the
// byte-counter rate increase. The NIC calls this for every data packet sent.
func (c *Controller) OnBytesSent(now units.Time, b units.Bytes) {
	c.bytesSinceInc += b
	for c.bytesSinceInc >= c.p.ByteCounter {
		c.bytesSinceInc -= c.p.ByteCounter
		c.byteStage++
		c.increase()
	}
	c.advance(now)
}

// advance applies any timer-driven state transitions up to now. Before the
// first CNP the flow is already at line rate, so early timer firings are
// harmless (increases are capped at the line rate).
func (c *Controller) advance(now units.Time) {
	c.advanceAlpha(now)
	for now-c.lastTimerFire >= c.p.RateIncreaseTimer {
		c.lastTimerFire += c.p.RateIncreaseTimer
		c.timerStage++
		c.increase()
	}
}

// advanceAlpha decays alpha for every elapsed alpha interval without a CNP.
func (c *Controller) advanceAlpha(now units.Time) {
	if !c.haveCNP {
		// Before the first CNP alpha stays at its initial value; it only
		// matters once decreases start.
		c.lastAlphaDecay = now
		return
	}
	for now-c.lastAlphaDecay >= c.p.AlphaResumeInterval {
		c.lastAlphaDecay += c.p.AlphaResumeInterval
		c.alpha = (1 - c.p.G) * c.alpha
	}
}

// increase applies one rate-increase event (timer or byte-counter driven).
func (c *Controller) increase() {
	minStage := c.timerStage
	if c.byteStage < minStage {
		minStage = c.byteStage
	}
	maxStage := c.timerStage
	if c.byteStage > maxStage {
		maxStage = c.byteStage
	}
	switch {
	case maxStage < c.p.FastRecoveryStages:
		// Fast recovery: move halfway back to the target rate.
	case minStage >= c.p.FastRecoveryStages:
		// Hyper increase.
		c.rt += c.p.RateHAI
	default:
		// Additive increase.
		c.rt += c.p.RateAI
	}
	if c.rt > c.p.LineRate {
		c.rt = c.p.LineRate
	}
	c.rc = (c.rc + c.rt) / 2
	if c.rc > c.p.LineRate {
		c.rc = c.p.LineRate
	}
	if c.rc < c.p.MinRate {
		c.rc = c.p.MinRate
	}
}
