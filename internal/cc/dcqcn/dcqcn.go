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

// The published parameter set (Zhu et al. '15) scaled to 100 Gbps links. The
// evaluation runs DCQCN and DCQCN+Win at these values only, so they are
// constants rather than per-flow settings.
const (
	// minRate is the floor for the sending rate.
	minRate = 100 * units.Mbps
	// g is the EWMA gain for alpha.
	g = 1.0 / 256.0
	// alphaResumeInterval is the alpha-decay timer period.
	alphaResumeInterval = 55 * units.Microsecond
	// rateIncreaseTimer drives time-based rate recovery.
	rateIncreaseTimer = 55 * units.Microsecond
	// byteCounter drives byte-based rate recovery.
	byteCounter = 10 * units.MB
	// fastRecoveryStages precede additive increase.
	fastRecoveryStages = 5
	// rateAI is the additive increase step.
	rateAI = 100 * units.Mbps
	// rateHAI is the hyper additive increase step.
	rateHAI = units.Gbps
)

// CNPInterval is the receiver-side minimum gap between CNPs per flow; the
// NIC's receiver reads it, so receiver and sender agree.
const CNPInterval = 50 * units.Microsecond

// Params are what a DCQCN flow varies: its line rate and, for DCQCN+Win, its
// window.
type Params struct {
	// LineRate is the host link rate; flows start at this rate and are never
	// paced above it.
	LineRate units.Rate
	// Window is an optional cap on bytes in flight (0 for plain DCQCN; one
	// base-RTT BDP for DCQCN+Win).
	Window units.Bytes
}

// DefaultParams returns the parameters of a plain DCQCN flow at a given line
// rate.
func DefaultParams(lineRate units.Rate) Params {
	return Params{LineRate: lineRate}
}

// Validate reports parameter errors: a line rate below the rate floor.
func (p Params) Validate() error {
	if p.LineRate < minRate {
		return fmt.Errorf("dcqcn: line rate %v below the %v floor", p.LineRate, minRate)
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
	c := new(Controller)
	c.Init(p)
	return c
}

// Init sets c up as New does, in place, so a simulation may keep its
// controllers in a slab instead of one heap object per flow.
func (c *Controller) Init(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	*c = Controller{
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
	if c.rc < minRate {
		c.rc = minRate
	}
	c.alpha = (1-g)*c.alpha + g
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
	for c.bytesSinceInc >= byteCounter {
		c.bytesSinceInc -= byteCounter
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
	for now-c.lastTimerFire >= rateIncreaseTimer {
		c.lastTimerFire += rateIncreaseTimer
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
	for now-c.lastAlphaDecay >= alphaResumeInterval {
		c.lastAlphaDecay += alphaResumeInterval
		c.alpha = (1 - g) * c.alpha
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
	case maxStage < fastRecoveryStages:
		// Fast recovery: move halfway back to the target rate.
	case minStage >= fastRecoveryStages:
		// Hyper increase.
		c.rt += rateHAI
	default:
		// Additive increase.
		c.rt += rateAI
	}
	if c.rt > c.p.LineRate {
		c.rt = c.p.LineRate
	}
	c.rc = (c.rc + c.rt) / 2
	if c.rc > c.p.LineRate {
		c.rc = c.p.LineRate
	}
	if c.rc < minRate {
		c.rc = minRate
	}
}
