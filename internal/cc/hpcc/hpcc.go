// Package hpcc implements the HPCC congestion control algorithm (Li et al.,
// SIGCOMM 2019) used as the paper's strongest end-to-end baseline.
//
// HPCC is window based: every data packet collects in-band network telemetry
// (per-hop queue length, transmitted bytes, link capacity, timestamp), the
// receiver reflects the telemetry on the ACK, and the sender computes the
// most-utilized link's normalized utilization U. The window is adjusted
// multiplicatively toward the target utilization η with a small additive
// term, at most once per RTT (with up to maxStage per-ACK sub-steps).
package hpcc

import (
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// The parameter set of the HPCC paper's evaluation (Li et al. '19). Every
// flow runs at these values, so they are constants rather than per-flow
// settings.
const (
	// eta is the target link utilization.
	eta = 0.95
	// maxStage is the number of per-ACK additive sub-steps per RTT.
	maxStage = 5
	// minWindow floors the window at one MTU so flows always make progress.
	minWindow units.Bytes = 1024
)

// Params are what an HPCC flow varies: its line rate and its path's base RTT.
type Params struct {
	// LineRate is the host link rate (window ceiling is LineRate * BaseRTT).
	LineRate units.Rate
	// BaseRTT is the unloaded end-to-end RTT T used to normalize telemetry.
	BaseRTT units.Time
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.LineRate <= 0 || p.BaseRTT <= 0 {
		return fmt.Errorf("hpcc: line rate and base RTT must be positive")
	}
	return nil
}

// inlineHops is the longest path, in switches, whose INT history a controller
// holds inline: every topology the simulator builds fits (a cross-DC path
// crosses six). A longer stack moves the history to the heap.
const inlineHops = 8

// Controller is the per-flow HPCC sender state machine. It implements
// cc.Controller.
type Controller struct {
	p Params
	// wai is the additive increase in bytes per adjustment. The HPCC paper
	// sizes it so that N flows converge; the code takes BDP/200, at least
	// 1 B.
	wai units.Bytes

	window units.Bytes // W
	wc     units.Bytes // reference window W_c
	stage  int
	// prev is the INT stack of the last ACK. It starts on prevHops, which
	// holds a path of up to inlineHops switches without an allocation.
	prev     []packet.INTHop
	prevHops [inlineHops]packet.INTHop

	// lastUpdateBytes implements the "once per RTT" reference update: the
	// reference window W_c is refreshed when the cumulative acked bytes pass
	// the point recorded at the previous refresh.
	ackedBytes      units.Bytes
	nextUpdateBytes units.Bytes
}

// Init sets c up with the window starting at one BDP. A simulation keeps its
// controllers in a slab and sets each up in place; a controller must not be
// copied afterwards, because its INT history points into itself.
func (c *Controller) Init(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	bdp := units.BDP(p.LineRate, p.BaseRTT)
	*c = Controller{p: p, wai: max(bdp/200, 1), window: bdp, wc: bdp}
	c.prev = c.prevHops[:0]
}

// Window implements cc.Controller.
func (c *Controller) Window() units.Bytes { return c.window }

// Rate implements cc.Controller: HPCC paces at W/T.
func (c *Controller) Rate() units.Rate {
	return units.RateFromBytes(c.window, c.p.BaseRTT)
}

// OnCNP implements cc.Controller (HPCC ignores CNPs).
func (c *Controller) OnCNP(units.Time) {}

// OnAck implements cc.Controller: processes the reflected INT stack.
func (c *Controller) OnAck(now units.Time, ackedBytes units.Bytes, _ bool, intHops []packet.INTHop) {
	c.ackedBytes += ackedBytes
	if len(intHops) == 0 {
		return
	}
	u := c.measureUtilization(intHops)

	updateRef := c.ackedBytes >= c.nextUpdateBytes

	if u >= eta || c.stage >= maxStage {
		// Multiplicative adjustment toward eta plus additive probe.
		newW := units.Bytes(float64(c.wc)/(u/eta)) + c.wai
		c.setWindow(newW)
		if updateRef {
			c.wc = c.window
			c.stage = 0
			c.nextUpdateBytes = c.ackedBytes + c.window
		}
	} else {
		// Additive-only sub-step.
		c.setWindow(c.wc + c.wai*units.Bytes(c.stage+1))
		if updateRef {
			c.wc = c.window
			c.stage++
			c.nextUpdateBytes = c.ackedBytes + c.window
		}
	}
	c.prev = append(c.prev[:0], intHops...)
}

func (c *Controller) setWindow(w units.Bytes) {
	maxW := units.BDP(c.p.LineRate, c.p.BaseRTT)
	if w > maxW {
		w = maxW
	}
	if w < minWindow {
		w = minWindow
	}
	c.window = w
}

// measureUtilization computes max-link normalized utilization from the INT
// stack, using tx-rate deltas against the previous stack where available.
func (c *Controller) measureUtilization(hops []packet.INTHop) float64 {
	maxU := 0.0
	for i, h := range hops {
		if h.Rate <= 0 {
			continue
		}
		bdp := float64(units.BDP(h.Rate, c.p.BaseRTT))
		if bdp <= 0 {
			bdp = 1
		}
		qTerm := float64(h.QLen) / bdp
		txTerm := 0.0
		if i < len(c.prev) {
			p := c.prev[i]
			dt := h.TS - p.TS
			db := h.TxBytes - p.TxBytes
			if dt > 0 && db >= 0 {
				txRate := float64(db) * 8 / dt.Seconds()
				txTerm = txRate / float64(h.Rate)
			}
		} else {
			// No previous sample for this hop: assume the link is busy in
			// proportion to its queue only.
			txTerm = 0
		}
		u := qTerm + txTerm
		if u > maxU {
			maxU = u
		}
	}
	if maxU <= 0 {
		// Telemetry shows an idle path; report a small utilization so the
		// window grows.
		maxU = 0.01
	}
	return maxU
}
