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
// record is filed under consumes exactly what a fresh schedule would (its
// owner's next sequence number), keeps the key and target here as the
// event's true ones and marks the slot slotMoved; when the record reaches the
// front of the queue, popReady files it again under that key. The filed key
// orders strictly before the true key, so every record that pops ahead of it
// would have popped ahead of a freshly scheduled one too, and the engine
// fires events in exactly the order cancel-and-reschedule fires them. Reset
// to an earlier or equal time cancels and schedules.
type Timer struct {
	s     *Scheduler
	fn    func(any)
	arg   any
	ev    Event
	filed units.Time // firing time the queued record is filed under

	// The true key and target of a moved record, valid while its slot is
	// slotMoved.
	key    Key
	target int32
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
		t.key, t.target = s.ChildKey(at, s.owner), s.owner
		s.slotAt(t.ev.slot).state = slotMoved
		return
	}
	t.Stop()
	t.ev = s.ScheduleCall(at, timerFire, t)
	t.filed = at
}

// refile files the moved record of timer slot id again under its true key.
// popReady calls it with the record just popped from the front of the queue.
func (s *Scheduler) refile(id int32) {
	c := s.slotAt(id)
	t := c.arg.(*Timer)
	c.state, c.target = slotPending, t.target
	t.filed = t.key.At
	s.file(entry{Key: t.key, slot: id})
}

// Stop cancels a pending firing. It is safe to call on a stopped timer.
func (t *Timer) Stop() {
	if t.ev != (Event{}) {
		t.s.Cancel(t.ev)
		t.ev = Event{}
	}
}

// Ticker repeatedly invokes a callback at a fixed period for the rest of the
// run. The switches use it for periodic bloom-filter pause frames. Like a
// Timer it calls fn(arg), so a static function and a pointer argument start
// it without a closure, and every tick is one ScheduleCallTo of tickerFire
// with the Ticker as its argument, so ticking allocates nothing. Start sets a
// Ticker up in place, for instance in a slab element, and the queued tick
// points at it, so it must not be copied afterwards.
type Ticker struct {
	s      *Scheduler
	period units.Time
	target int32
	fn     func(any)
	arg    any
}

// Start starts t with the given period; the first tick fires one period from
// now. Every tick runs for target, the device that owns the ticker; started
// during set-up, the first tick is target's own schedule (see
// ScheduleCallTo), and every later one is scheduled by the tick before it.
func (t *Ticker) Start(s *Scheduler, period units.Time, target int32, fn func(any), arg any) {
	if period <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	if fn == nil {
		panic("eventsim: nil ticker callback")
	}
	*t = Ticker{s: s, period: period, target: target, fn: fn, arg: arg}
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
	t.s.ScheduleCallTo(t.s.now+t.period, t.target, tickerFire, t)
}
