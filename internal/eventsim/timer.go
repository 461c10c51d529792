package eventsim

import "bfc/internal/units"

// Timer is a restartable one-shot timer built on a Scheduler, analogous to
// time.Timer but in simulated time. The NIC's retransmission timeout and its
// pacing wake-up use it; periodic work runs on a Ticker. A Timer calls
// fn(arg), the form ScheduleCall takes, so a static function and a pointer
// argument arm it without a closure. Its queued event calls timerFire with
// the Timer itself as the argument, so Reset/Stop cycles allocate nothing. A
// Timer may be copied into place (r.t = *NewTimer(s, fn, r)), for instance
// into a slab element, before it is first armed, never after: the queued
// event points at it.
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
	fn    func(any)
	arg   any
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

// NewTimer returns a stopped timer that will invoke fn(arg) when it fires.
func NewTimer(s *Scheduler, fn func(any), arg any) *Timer {
	if fn == nil {
		panic("eventsim: nil timer callback")
	}
	return &Timer{s: s, fn: fn, arg: arg}
}

// timerFire is every timer event's callback.
func timerFire(a any) {
	t := a.(*Timer)
	t.ev = Event{}
	t.fn(t.arg)
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

// Ticker repeatedly invokes a callback at a fixed period for the rest of the
// run. The switches use it for periodic bloom-filter pause frames. Like a
// Timer it calls fn(arg), so a static function and a pointer argument start
// it without a closure, and every tick is one ScheduleCallTagged of
// tickerFire with the Ticker as its argument, so ticking allocates nothing.
// Start sets a Ticker up in place, for instance in a slab element, and the
// queued tick points at it, so it must not be copied afterwards.
//
// A ticker's tick at instant T carries the scheduling chain (T-period,
// T-2·period, ...): each tick is scheduled by its predecessor. For an
// untagged ticker started during setup whose callback schedules nothing,
// that is TickKey(T, period) — the key the sim coordinator's statistics tick
// uses at its barriers without running a ticker of its own.
type Ticker struct {
	s      *Scheduler
	period units.Time
	tag    uint64
	fn     func(any)
	arg    any
}

// Start starts t with the given period; the first tick fires one period from
// now. tag is the causal-origin tag carried by every tick (and inherited by
// everything the callback schedules). Periodic device work needs it on a
// partitioned run: devices ticking at the same period produce ticks with
// identical arithmetic scheduling chains, so their same-instant emissions can
// only be ordered across shards by their origin tag — which must therefore
// encode the device's construction order (its node ID). Devices with
// different periods differ in their chains already.
func (t *Ticker) Start(s *Scheduler, period units.Time, tag uint64, fn func(any), arg any) {
	if period <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	if fn == nil {
		panic("eventsim: nil ticker callback")
	}
	*t = Ticker{s: s, period: period, tag: tag, fn: fn, arg: arg}
	t.schedule()
}

// tickerFire is every tick's callback: the ticker's callback, then the next
// tick, scheduled after everything the callback scheduled.
func tickerFire(a any) {
	t := a.(*Ticker)
	t.fn(t.arg)
	t.schedule()
}

func (t *Ticker) schedule() {
	t.s.ScheduleCallTagged(t.s.now+t.period, t.tag, tickerFire, t)
}
