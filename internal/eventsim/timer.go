package eventsim

import "bfc/internal/units"

// Timer is a restartable one-shot timer built on a Scheduler, analogous to
// time.Timer but in simulated time. The NIC's retransmission timeout and its
// pacing wake-up use it; periodic work runs on a Ticker. A Timer is one
// allocation: its queued event calls timerFire with the Timer itself as the
// argument, so Reset/Stop cycles allocate nothing. A Timer may be copied into
// place (f.t = *NewTimer(s, fn)) before it is first armed, never after: the
// queued event points at it.
//
// Pushing a pending timer back is the common case — a retransmission timer
// re-armed on every packet, firing almost never — and costs a re-key, not a
// queue operation. Reset to a time strictly later than the one the queued
// record is filed under consumes exactly what a fresh schedule would (a
// reference on the dispatch's pedigree, a child index, the inherited tag, a
// sequence number), keeps them here as the event's true key and marks the
// slot slotMoved; when the record reaches the front of the queue, popReady
// files it again under that key. The filed key orders strictly before the
// true key, so every record that pops ahead of it would have popped ahead of
// a freshly scheduled one too, and the engine fires events in exactly the
// order cancel-and-reschedule fires them. Reset to an earlier or equal time
// cancels and schedules.
type Timer struct {
	s     *Scheduler
	fn    func()
	ev    Event
	filed units.Time // firing time the queued record is filed under

	// The true key of a moved record, valid while its slot is slotMoved; ped
	// holds a reference of its own until popReady hands it to the slot.
	at, chain0 units.Time
	seq        uint64
	ped        int32
	kid        uint32
	tag        uint64
}

// NewTimer returns a stopped timer that will invoke fn when it fires.
func NewTimer(s *Scheduler, fn func()) *Timer {
	if fn == nil {
		panic("eventsim: nil timer callback")
	}
	return &Timer{s: s, fn: fn}
}

// timerFire is every timer event's callback.
func timerFire(a any) {
	t := a.(*Timer)
	t.ev = Event{}
	t.fn()
}

// Reset (re)arms the timer to fire d from now, replacing any pending firing.
func (t *Timer) Reset(d units.Time) {
	s := t.s
	at := s.now + d
	if at > t.filed && s.Pending(t.ev) {
		c := s.slotAt(t.ev.slot)
		if c.state == slotMoved {
			s.releasePed(t.ped)
		}
		pid := s.ensureCurPed()
		s.pedAt(pid).refs++
		t.at, t.chain0, t.ped, t.kid, t.tag, t.seq = at, s.now, pid, s.nextKid(), s.curTag, s.seq
		s.seq++
		c.state = slotMoved
		return
	}
	t.Stop()
	t.ev = s.ScheduleCall(at, timerFire, t)
	t.filed = at
}

// refile files the moved record of timer slot id again under its true key.
// popReady calls it with the record just popped from the front of the queue,
// whose slot still holds the pedigree it was filed under.
func (s *Scheduler) refile(id int32) {
	c := s.slotAt(id)
	t := c.arg.(*Timer)
	s.releasePed(c.ped)
	c.state, c.ped, c.kid, c.tag = slotPending, t.ped, t.kid, t.tag
	t.filed = t.at
	s.file(entry{at: t.at, chain0: t.chain0, seq: t.seq, slot: id})
}

// Stop cancels a pending firing. It is safe to call on a stopped timer.
func (t *Timer) Stop() {
	if t.ev != (Event{}) {
		if c := t.s.slotAt(t.ev.slot); c.gen == t.ev.gen && c.state == slotMoved {
			t.s.releasePed(t.ped)
		}
		t.s.Cancel(t.ev)
		t.ev = Event{}
	}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev != (Event{}) }

// Ticker repeatedly invokes a callback at a fixed period until stopped. The
// switches use it for periodic bloom-filter pause frames. It schedules one
// pre-allocated closure per tick.
//
// A ticker's tick at instant T carries the scheduling chain (T-period,
// T-2·period, T-3·period): each tick is scheduled by its predecessor. The sim
// coordinator's statistics tick uses the same key at its barriers without
// running a ticker of its own.
type Ticker struct {
	s      *Scheduler
	period units.Time
	tag    uint64
	fn     func()
	tick   func()
	ev     Event
	stop   bool
}

// NewTickerTagged creates and starts a ticker with the given period; the first
// tick fires one period from now. tag is the causal-origin tag carried by
// every tick (and inherited by everything the callback schedules). Periodic
// device work needs it on a partitioned run: every device ticking at the same
// period produces ticks with identical arithmetic scheduling chains, so
// same-instant emissions from different devices can only be ordered across
// shards by their origin tag — which must therefore encode the device's
// construction order (its node ID).
func NewTickerTagged(s *Scheduler, period units.Time, tag uint64, fn func()) *Ticker {
	if period <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	if fn == nil {
		panic("eventsim: nil ticker callback")
	}
	t := &Ticker{s: s, period: period, tag: tag, fn: fn}
	t.tick = func() {
		if t.stop {
			return
		}
		t.fn()
		if !t.stop {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.ev = t.s.ScheduleTagged(t.s.Now()+t.period, t.tag, t.tick)
}

// Stop halts the ticker; no further ticks fire.
func (t *Ticker) Stop() {
	t.stop = true
	if t.ev != (Event{}) {
		t.s.Cancel(t.ev)
		t.ev = Event{}
	}
}
