package eventsim

import (
	"slices"
	"sort"
	"testing"

	"bfc/internal/units"
)

// FuzzQueueOrder drives the scheduler and a slow obvious model of it — one
// slice kept sorted by Key.Less, with the engine's lazy-cancellation
// rules spelled out literally — through the same operation sequence decoded
// from the fuzz input, and requires them to agree on everything observable:
// which event every dispatch fires, Len, Pending, the clock after each run
// call, the count each run call returns, the pending-record count and its
// high-water mark (so compaction must fire at the same logical points),
// Executed and Len as every dispatched callback sees them — both without the
// running event — and, once drained, that no slot or park record leaked
// through a parked, migrated or moved record.
//
// Timers are modelled at the record level too. A Reset to a time past the one
// the timer's queued record is filed under re-keys that record: it keeps its
// place, takes the new key along as its true key, and adds no stale record and
// no new one; when it surfaces as the earliest record under a run call's rule
// it is filed again under the true key. Any other Reset is a stale record plus
// an insert. On top of agreeing with the engine, the model checks the contract
// the lazy path exists under: every dispatch is the earliest live event by
// true key, the event cancel-and-reschedule would have fired.
//
// The model never looks at buckets: any disagreement is the three-tier
// queue's. The one look inside the engine is checkCur after every operation:
// cur's run must be sorted latest-first and its side a heap. Keys are derived
// the way the package comment defines them — the current owner, or outside a
// dispatch the target; the parent's generation plus one at the current
// instant, else 0; the owner's own count — from the model's own record of the
// current key and owner and of every owner's count. Every key is unique, so
// the model's order is strict, and a tie fails the test.

// modelEvent is one pending record of the model, plus what its callback does
// when it fires (see fire).
type modelEvent struct {
	key       Key   // the key the record is filed under
	target    int32 // the owner it runs for
	id        int
	cancelled bool
	fired     bool
	prog      byte
	depth     int

	timer      *modelTimer // the timer whose record this is, or nil
	moved      bool        // a lazy Reset re-keyed it: it fires under next, for nextTarget
	next       Key
	nextTarget int32
}

// due is the key e fires under: its true key.
func (e *modelEvent) due() Key {
	if e.moved {
		return e.next
	}
	return e.key
}

// modelTimer is one Timer and the model's record of what it has queued.
type modelTimer struct {
	t  *Timer
	ev *modelEvent // its queued record, nil when stopped or fired
}

// queueModel is the reference: pending holds live and lazily-cancelled
// records in dispatch order.
type queueModel struct {
	t       *testing.T
	s       *Scheduler
	pending []*modelEvent
	byID    []*modelEvent // every event ever scheduled, by id
	handles []Event       // engine handle of event id
	timers  [4]*modelTimer
	live    int
	stale   int
	hw      int
	now     units.Time
	done    uint64 // events whose callbacks have returned

	// The current key and owner (see Scheduler.key), and every owner's count.
	key   Key
	owner int32
	seqs  map[int32]uint64

	// The run call in progress: the eligibility rule for the next dispatch.
	until  units.Time
	strict bool
	fired  uint64

	in    []byte // undecoded input
	reach tierReach
}

func (m *queueModel) next() byte {
	if len(m.in) == 0 {
		return 0
	}
	b := m.in[0]
	m.in = m.in[1:]
	return b
}

// delay decodes a tier-crossing delay: a tierDelays entry plus a few
// picoseconds, so instants collide but do not all collide.
func (m *queueModel) delay(b byte) units.Time {
	return tierDelays[int(b&15)%len(tierDelays)] + units.Time(b>>4)&3
}

// childKey is the key the engine must give an event scheduled right now for
// target.
func (m *queueModel) childKey(at units.Time, target int32) Key {
	owner := m.owner
	if owner == Coordinator {
		owner = target
	}
	gen := uint64(0)
	if at == m.now {
		gen = m.key.ord>>32 + 1
	}
	k := Key{At: at, ord: gen<<32 | uint64(uint32(owner+1)), Seq: m.seqs[owner]}
	m.seqs[owner]++
	return k
}

// settle leaves the model outside any dispatch at instant t: the Coordinator
// at generation 0.
func (m *queueModel) settle(t units.Time) {
	m.now, m.key, m.owner = t, Key{At: t}, Coordinator
}

// filed reports whether k is the key of a record in the queue or of a moved
// record's true key: keys are unique.
func (m *queueModel) filed(k Key) bool {
	for _, e := range m.pending {
		if e.key == k || e.moved && e.next == k {
			return true
		}
	}
	return false
}

// insert files a new record for target under k.
func (m *queueModel) insert(k Key, target int32, prog byte, depth int) {
	if m.filed(k) {
		m.t.Fatalf("two records keyed %+v", k)
	}
	e := &modelEvent{key: k, target: target, id: len(m.byID), prog: prog, depth: depth}
	i := sort.Search(len(m.pending), func(i int) bool { return e.key.Less(m.pending[i].key) })
	m.pending = slices.Insert(m.pending, i, e)
	m.byID = append(m.byID, e)
	m.live++
	if len(m.pending) > m.hw {
		m.hw = len(m.pending)
	}
}

// schedule performs one scheduling op on both sides. kind selects the entry
// point, arg the delay and target; the new event runs m.fire when
// dispatched, which acts out prog.
func (m *queueModel) schedule(kind, arg, prog byte, depth int) {
	at := m.s.Now() + m.delay(arg)
	target := int32(arg>>6) % 3
	id := len(m.byID)
	before := tierSizes(m.s)
	var h Event
	switch kind % 4 {
	case 0:
		m.insert(m.childKey(at, m.owner), m.owner, prog, depth)
		h = m.s.Schedule(at, func() { m.fire(id) })
	case 1:
		m.insert(m.childKey(at, target), target, prog, depth)
		h = m.s.ScheduleCallTo(at, target, func(x any) { m.fire(x.(int)) }, id)
	case 2:
		m.insert(m.childKey(at, m.owner), m.owner, prog, depth)
		h = m.s.ScheduleCall(at, func(x any) { m.fire(x.(int)) }, id)
	case 3:
		// The boundary path: the key is taken on the sending side
		// (consuming the owner's count) and filed as it is on injection.
		want := m.childKey(at, target)
		k := m.s.ChildKey(at, target)
		if k != want {
			m.t.Fatalf("ChildKey = %+v, model derives %+v", k, want)
		}
		m.insert(k, target, prog, depth)
		h = m.s.ScheduleCallInjected(k, target, func(x any) { m.fire(x.(int)) }, id)
	}
	m.handles = append(m.handles, h)
	m.reach.noteInsert(m.s, before)
	m.checkCounts("schedule")
}

// cancel cancels the arg-th newest of all events ever scheduled — pending,
// fired or already cancelled. A timer's pending record is cancelled the only
// way a caller can: by stopping the timer.
func (m *queueModel) cancel(arg byte) {
	if len(m.byID) == 0 {
		return
	}
	id := len(m.byID) - 1 - int(arg)%len(m.byID)
	e := m.byID[id]
	pendingBefore := !e.cancelled && !e.fired
	if got := m.s.Pending(m.handles[id]); got != pendingBefore {
		m.t.Fatalf("Pending(event %d) = %v, model %v", id, got, pendingBefore)
	}
	if pendingBefore {
		m.reach.noteSeam(m.handles[id])
	}
	if e.timer != nil && pendingBefore {
		e.timer.t.Stop()
		e.timer.ev = nil
	} else {
		m.s.Cancel(m.handles[id])
	}
	if pendingBefore {
		m.drop(e)
	}
	if m.s.Pending(m.handles[id]) {
		m.t.Fatalf("event %d still pending after Cancel", id)
	}
	m.checkCounts("cancel")
}

// drop marks e's record cancelled and sweeps the queue once dead records
// dominate it. Moved records are live and stay where they are filed.
func (m *queueModel) drop(e *modelEvent) {
	e.cancelled = true
	m.live--
	m.stale++
	if m.stale > 64 && m.stale*2 > len(m.pending) {
		m.pending = slices.DeleteFunc(m.pending, func(p *modelEvent) bool { return p.cancelled })
		m.stale = 0
		for _, p := range m.pending {
			if p.moved {
				m.reach.timers.movedKept++
			}
		}
	}
}

// timer returns timer i, creating it on first use.
func (m *queueModel) timer(i int) *modelTimer {
	if m.timers[i] == nil {
		mt := &modelTimer{}
		mt.t = NewTimer(m.s, func(any) {
			if mt.ev == nil {
				m.t.Fatalf("timer %d fired, model has it stopped", i)
			}
			m.fire(mt.ev.id)
		}, nil)
		m.timers[i] = mt
	}
	return m.timers[i]
}

// reset performs Timer.Reset on timer i on both sides: later, to a time past
// the one its record is filed under (a re-key when it is armed), or else to
// that time or before it (cancel and schedule). An idle timer is scheduled
// delay(arg) from now either way.
func (m *queueModel) reset(i int, later bool, arg, prog byte, depth int) {
	mt := m.timer(i)
	now := m.s.Now()
	at := now + m.delay(arg)
	e := mt.ev
	if e != nil {
		if later {
			at = e.key.At + 1 + m.delay(arg)
		} else {
			at = max(now, e.key.At-m.delay(arg))
		}
	}
	if e != nil {
		m.reach.noteSeam(m.handles[e.id])
	}
	k := m.childKey(at, m.owner)
	before := tierSizes(m.s)
	if e != nil && at > e.key.At {
		e.moved, e.next, e.nextTarget = true, k, m.owner
		e.prog, e.depth = prog, depth
		mt.t.Reset(at - now)
		if tierSizes(m.s) != before {
			m.t.Fatalf("lazy Reset of timer %d changed the tiers: %v -> %v", i, before, tierSizes(m.s))
		}
		m.reach.timers.lazy++
	} else {
		if e != nil {
			m.drop(e)
		}
		m.insert(k, m.owner, prog, depth)
		mt.ev = m.byID[len(m.byID)-1]
		mt.ev.timer = mt
		mt.t.Reset(at - now)
		m.handles = append(m.handles, mt.t.ev)
		m.reach.noteInsert(m.s, before)
		m.reach.timers.fallback++
	}
	if mt.t.ev == (Event{}) || !m.s.Pending(m.handles[mt.ev.id]) {
		m.t.Fatalf("timer %d not pending after Reset", i)
	}
	m.checkCounts("Reset")
}

// stop performs Timer.Stop on timer i on both sides.
func (m *queueModel) stop(i int) {
	mt := m.timer(i)
	mt.t.Stop()
	if mt.ev != nil {
		m.reach.noteSeam(m.handles[mt.ev.id])
		m.drop(mt.ev)
		mt.ev = nil
	}
	if mt.t.ev != (Event{}) {
		m.t.Fatalf("timer %d pending after Stop", i)
	}
	m.checkCounts("Stop")
}

func (m *queueModel) checkCounts(op string) {
	m.t.Helper()
	checkCur(m.t, m.s)
	m.reach.peak = max(m.reach.peak, m.live)
	if m.s.live != m.live || m.s.Executed != m.done {
		m.t.Fatalf("after %s: live = %d, Executed = %d; model %d, %d", op, m.s.live, m.s.Executed, m.live, m.done)
	}
	if m.s.pending() != len(m.pending) || m.s.stale != m.stale {
		m.t.Fatalf("after %s: %d records pending (%d stale), model %d (%d stale)",
			op, m.s.pending(), m.s.stale, len(m.pending), m.stale)
	}
	if m.s.HeapHighWater() != m.hw {
		m.t.Fatalf("after %s: HeapHighWater = %d, model %d", op, m.s.HeapHighWater(), m.hw)
	}
}

// eligible reports whether e may be dispatched by the run call in progress.
func (m *queueModel) eligible(e *modelEvent) bool {
	return e.key.At < m.until || (!m.strict && e.key.At == m.until)
}

// surface does what a run loop does before looking at the next live record:
// it drops a cancelled top within the horizon, and files a moved top within
// it again under its true key.
func (m *queueModel) surface() {
	for len(m.pending) > 0 {
		top := m.pending[0]
		switch {
		case top.cancelled && m.eligible(top):
			m.pending = m.pending[1:]
			m.stale--
		case top.moved && m.eligible(top):
			m.pending = m.pending[1:]
			top.key, top.target = top.next, top.nextTarget
			top.moved = false
			i := sort.Search(len(m.pending), func(i int) bool { return top.key.Less(m.pending[i].key) })
			m.pending = slices.Insert(m.pending, i, top)
		default:
			return
		}
	}
}

// fire is every event's callback: the model checks that id is the event it
// would dispatch next, then acts out the event's program on both sides.
func (m *queueModel) fire(id int) {
	m.surface()
	if len(m.pending) == 0 {
		m.t.Fatalf("engine dispatched event %d, model queue is empty", id)
	}
	top := m.pending[0]
	if top.id != id {
		m.t.Fatalf("engine dispatched event %d (key %+v), model expects %d (key %+v)", id, m.byID[id].key, top.id, top.key)
	}
	if !m.eligible(top) {
		m.t.Fatalf("engine dispatched event %d at %v beyond the run call's horizon", id, top.key.At)
	}
	m.pending = m.pending[1:]
	key := top.due()
	for _, e := range m.pending {
		if k := e.due(); !e.cancelled && k.Less(key) {
			m.t.Fatalf("engine dispatched event %d (key %+v); cancel-and-reschedule fires %d (key %+v) first", id, key, e.id, k)
		}
	}
	top.fired = true
	if top.timer != nil {
		top.timer.ev = nil
	}
	m.live--
	m.fired++
	m.now, m.key, m.owner = top.key.At, top.key, top.target
	if cur := m.s.CurrentKey(); cur != top.key {
		m.t.Fatalf("event %d dispatched under key %+v, scheduled under %+v", id, cur, top.key)
	}
	if m.s.Now() != m.now {
		m.t.Fatalf("Now = %v inside event %d, model %v", m.s.Now(), id, m.now)
	}
	m.checkCounts("dispatch") // the running event: out of Len, not yet in Executed

	// The callback's program: bits 0-1 count its children (none past the
	// third generation), whose entry points, delays and own programs derive
	// from the other six; bit 6 cancels. A timer's callback with bit 5 set
	// first resets timer bits 2-3, later unless bit 4 is set, so a Reset
	// consumes one of the owner's sequence numbers.
	prog := top.prog
	if top.timer != nil && prog&0x20 != 0 && top.depth < 3 {
		m.reset(int(prog>>2)&3, prog&0x10 == 0, prog>>1, prog*29+17, top.depth+1)
	}
	if top.depth < 3 {
		for i := byte(0); i < prog&3; i++ {
			m.schedule(prog>>2+i, prog>>2+5*i, prog*29+17+i, top.depth+1)
		}
	}
	if prog&0x40 != 0 {
		m.cancel(prog >> 1 & 7)
	}
	m.done++
}

// run performs one run call on the engine under the model's eligibility rule
// and checks what it leaves behind: nothing eligible, and the clock at
// advanceTo unless that is maxTime (Run has no horizon to advance to).
func (m *queueModel) run(name string, call func() uint64, advanceTo units.Time) {
	m.fired = 0
	got := call()
	m.surface()
	if len(m.pending) > 0 && m.eligible(m.pending[0]) {
		m.t.Fatalf("%s returned with event %d (key %+v) still eligible", name, m.pending[0].id, m.pending[0].key)
	}
	if m.now < advanceTo && advanceTo != maxTime {
		m.settle(advanceTo)
	}
	if got != m.fired {
		m.t.Fatalf("%s executed %d events, model %d", name, got, m.fired)
	}
	if m.s.Now() != m.now {
		m.t.Fatalf("after %s: Now = %v, model %v", name, m.s.Now(), m.now)
	}
	m.checkCounts(name)
}

// runQueueOps decodes in into operations — opcode and operand, plus a program
// byte for the scheduling ops — runs them against a fresh scheduler and the
// model, drains, and returns what the run reached.
func runQueueOps(t *testing.T, in []byte) tierReach {
	m := &queueModel{t: t, s: New(), in: in, seqs: map[int32]uint64{}}
	m.settle(0)
	for len(m.in) > 0 {
		op, arg := m.next(), m.next()
		switch op % 16 {
		case opSchedule, opSchedule + 1, opSchedule + 2, opSchedule + 3:
			m.schedule(op, arg, m.next(), 0)
		case opCancel, opCancel + 1:
			m.cancel(arg)
		case opStep:
			m.until, m.strict = maxTime, false
			m.fired = 0
			stepped := m.s.Step()
			if stepped != (m.fired == 1) {
				t.Fatalf("Step = %v, model fired %d", stepped, m.fired)
			}
			if !stepped {
				m.surface()
				if len(m.pending) != 0 {
					t.Fatalf("Step found nothing, model has %d records", len(m.pending))
				}
			}
			m.checkCounts("Step")
		case opRunUntil, opRunUntil + 1:
			until := m.s.Now() + m.delay(arg)
			m.until, m.strict = until, false
			m.run("RunUntil", func() uint64 { return m.s.RunUntil(until) }, until)
		case opRunBefore:
			until := m.s.Now() + m.delay(arg)
			m.until, m.strict = until, true
			m.run("RunBefore", func() uint64 { return m.s.RunBefore(until) }, until)
		case opAct, opAct + 1:
			// An action for owner Coordinator..2 under one of the
			// Coordinator's keys at Now: what follows counts on that owner.
			k, owner := Key{At: m.s.Now(), Seq: uint64(arg & 63)}, int32(arg>>6)-1
			m.s.Act(k, owner)
			m.key, m.owner = k, owner
			m.checkCounts("Act")
		case opResetLater, opResetLater + 1:
			m.reset(int(arg>>6), true, arg, m.next(), 0)
		case opResetEarlier:
			m.reset(int(arg>>6), false, arg, m.next(), 0)
		case opStopTimer:
			m.stop(int(arg >> 6))
		}
	}
	// Drain.
	m.until, m.strict = maxTime, false
	m.run("Run", func() uint64 { return m.s.RunUntil(maxTime) }, maxTime)
	m.surface()
	m.s.Step() // the engine's turn to discard a cancelled tail
	m.checkCounts("drain")
	if len(m.pending) != 0 {
		t.Fatalf("drained engine, model still holds %d records", len(m.pending))
	}
	for id, h := range m.handles {
		if m.s.Pending(h) {
			t.Fatalf("event %d still pending after drain", id)
		}
	}
	for i, mt := range m.timers {
		if mt != nil && (mt.ev != nil || mt.t.ev != (Event{})) {
			t.Fatalf("timer %d armed after drain", i)
		}
	}
	requireDrained(t, m.s)
	m.reach.collect(m.s)
	return m.reach
}

// Opcodes (mod 16) and operands of the fuzz input, named so the seed corpus
// reads as a program and cannot drift from the decoder silently.
const (
	opSchedule     = 0 // +1 ScheduleCallTo, +2 call, +3 ChildKey and injected; takes a program byte
	opCancel       = 4
	opStep         = 6
	opRunUntil     = 7
	opRunBefore    = 9
	opAct          = 10 // operand bits 6-7: the owner, Coordinator + 0-3
	opResetLater   = 12 // Reset past the filed time; takes a program byte
	opResetEarlier = 14 // Reset to the filed time or before it; takes a program byte
	opStopTimer    = 15

	// Delay operands: indexes into tierDelays (bits 4-5 add 0-3 ps, bits 6-7
	// choose a target, or for the timer ops the timer).
	dNow     = 0  // same instant
	dNear    = 1  // same bucket
	dBucket  = 4  // next bucket: ring
	dRingEnd = 8  // the window's last bucket
	dOutside = 9  // first bucket beyond the window: far
	dBeyond  = 10 // one bucket further
	dFar     = 11 // five windows out

	progCancel = 0x40 // the callback cancels the newest event
)

// queueSeeds is the committed seed corpus. Together the seeds reach refill
// from the ring and from far, far -> ring migration, compaction with
// cancelled records in each tier, a bucket sorted past sortCutoff, a pop
// from cur's side heap over a non-empty run, and both Reset paths, with
// moved records kept by compaction (TestQueueOrderSeedsReachAllTiers),
// through every entry point the decoder knows.
func queueSeeds() [][]byte {
	var compactAll, lateSweep, refills, tree, timers, timerTree, acts, timerSweep []byte
	// Compaction in all three tiers at once: idle records in each tier,
	// cancelled newest first. With 25 per tier the 65th cancel sweeps (the
	// floor of 64 dead records decides); with 50 per tier the 76th does (dead
	// records must outnumber live ones across the tiers, not in one of them).
	idle := func(perTier, cancels int) (seed []byte) {
		for _, tier := range [][2]byte{{opSchedule, dNear}, {opSchedule + 1, dBucket}, {opSchedule + 2, dFar}} {
			for i := 0; i < perTier; i++ {
				seed = append(seed, tier[0], tier[1], 0)
			}
		}
		for i := 0; i < cancels; i++ {
			seed = append(seed, opCancel, byte(i))
		}
		return append(seed, opRunUntil, dFar, opRunUntil, dFar)
	}
	compactAll, lateSweep = idle(25, 70), idle(50, 80)

	// Refill from the ring, then from far across an idle gap; the far record
	// one bucket beyond migrates when the window shifts over it.
	refills = []byte{
		opSchedule, dBucket, 0,
		opSchedule + 3, dRingEnd, 0,
		opSchedule, dOutside, 0,
		opSchedule + 2, dBeyond, 0,
		opSchedule + 1, dFar | 0x40, 0,
		opStep, 0,
		opRunBefore, dRingEnd,
		opRunUntil, dOutside,
		opStep, 0,
		opStep, 0,
		opStep, 0,
	}

	// Dispatch trees: callbacks that schedule through every entry point and
	// cancel; actions for owners between run calls and horizons half-way
	// through a bucket.
	tree = []byte{
		opSchedule, dNow, 3 | 5<<2, // three children, entry points 1, 2, 3
		opSchedule + 1, dNear | 0x80, 2 | 0x40, // two children, then cancels
		opSchedule + 2, dBucket, 1 | 3<<2,
		opSchedule + 3, dNear, progCancel,
		opSchedule, dNear | 0x10, 3 | 8<<2,
		opStep, 0,
		opAct + 1, 2<<6 | 5,
		opSchedule, dNow, 2,
		opRunUntil, dRingEnd,
		opSchedule, dNow, progCancel | 2,
		opSchedule + 1, dOutside, 3 | 9<<2,
		opRunBefore, dOutside,
		opCancel + 1, 3,
		opRunUntil, dFar,
		opAct, 3 << 6,
		opSchedule + 1, dNow | 0x40, 1,
	}
	// Timers 0-3 (operand bits 6-7). Timer 0 is pushed back during set-up to
	// the instant of an event scheduled right after: the two tie on instant,
	// generation and owner, and only the sequence number the lazy Reset
	// consumed orders them. Timer 1
	// is pushed from the ring to the window's end and then into far; timer 2
	// is pushed back and then Reset earlier (the moved record is cancelled);
	// timer 3 is pushed back and stopped.
	timers = []byte{
		opResetLater, dNow, 0,
		opResetLater, dNow, 0,
		opSchedule, dNow | 0x10, 0,
		opResetLater, 1<<6 | dBucket, 0,
		opResetLater, 1<<6 | dRingEnd, 0,
		opResetLater, 1<<6 | dFar, 0,
		opResetLater, 2<<6 | dOutside, 0,
		opResetLater, 2<<6 | dBucket, 0,
		opResetEarlier, 2<<6 | dNear, 0,
		opResetLater, 3<<6 | dNear, 0,
		opResetLater, 3<<6 | dNear, 0,
		opStopTimer, 3 << 6,
		opResetEarlier, 3<<6 | dNow, 0, // idle: scheduled
		opResetEarlier, 3<<6 | dNow, 0, // the filed instant again: cancel and schedule
		opStep, 0,
		opStep, 0,
		opRunUntil, dFar,
		opRunUntil, dFar,
	}

	// Resets inside a dispatch, where they count on the owner: timer 0's
	// callback pushes timer 1 back and then schedules two children; timer
	// 2's Resets timer 3 to its filed instant and schedules one.
	timerTree = []byte{
		opResetLater, 1<<6 | dFar, 0,
		opResetLater, 3<<6 | dOutside, 0,
		opResetLater, dNear, 0x20 | 1<<2 | 2,
		opResetLater, 2<<6 | dBucket, 0x30 | 3<<2 | 1,
		opSchedule + 1, dNear | 0x10, 0,
		opRunUntil, dRingEnd,
		opResetLater, 1<<6 | dNow, 0x20 | 2<<2 | 3,
		opRunUntil, dFar,
	}

	// Actions at one instant: three owners act in turn between run calls,
	// each scheduling at Now (generation 1, after every record pending at
	// Now) and later, and pushing a timer back, so the keys of the records
	// at one instant differ only in owner and sequence number.
	acts = []byte{
		opSchedule + 1, dNear | 0x40, 0,
		opSchedule + 1, dNear | 0x80, 0,
		opRunBefore, dNear,
		opAct, 2<<6 | 1,
		opSchedule, dNow, 0,
		opResetLater, dBucket, 0,
		opAct, 1<<6 | 2,
		opSchedule + 2, dNow, 1 | 1<<2,
		opResetLater, dBucket, 0,
		opAct, 3<<6 | 3,
		opSchedule + 3, dNow | 0x40, 0,
		opSchedule + 1, dBucket, 0,
		opRunUntil, dFar,
	}

	// A moved record in each tier while compaction sweeps the cancelled
	// idle records around them.
	timerSweep = []byte{
		opResetLater, dNear, 0,
		opResetLater, 1<<6 | dBucket, 0,
		opResetLater, 2<<6 | dFar, 0,
		opResetLater, dNow, 0,
		opResetLater, 1<<6 | dNow, 0,
		opResetLater, 2<<6 | dNow, 0,
	}
	timerSweep = append(timerSweep, idle(25, 70)...)

	// Across the first slot-page seam: a fresh scheduler hands out slots in
	// order, so idle records through every entry point fill page 0 but its
	// last slot, timer 0 arms on that slot and timer 1 on the first of page
	// 1, and more records follow. Both timers are pushed back (re-keyed on
	// both sides of the seam), timer 0's record is cancelled, timer 1 is Reset
	// earlier (cancel and schedule), and the records on either side go too.
	var pageSeam []byte
	for i := 0; i < slotPage-1; i++ {
		pageSeam = append(pageSeam, opSchedule+byte(i%4), [...]byte{dNear, dBucket, dRingEnd, dFar}[i/4%4], 0)
	}
	pageSeam = append(pageSeam,
		opResetLater, dBucket, 0,
		opResetLater, 1<<6|dBucket, 0,
		opSchedule, dBucket, 0,
		opSchedule+2, dFar, 0,
		opResetLater, dNear, 0,
		opResetLater, 1<<6|dNear, 0,
		opCancel, 3, // timer 0's record, the last slot of page 0
		opResetEarlier, 1<<6|dNear, 0, // timer 1's, the first of page 1
		opCancel, 5, // slot 1022 (the Reset took slot 1027)
		opCancel, 2, // slot 1025
		opStep, 0,
		opRunUntil, dFar,
	)

	return [][]byte{compactAll, lateSweep, refills, tree, timers, timerTree, acts, timerSweep, pageSeam}
}

func FuzzQueueOrder(f *testing.F) {
	for _, seed := range queueSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 4096 {
			t.Skip("longer than any interesting schedule")
		}
		runQueueOps(t, in)
	})
}

// TestQueueOrderSeedsReachAllTiers keeps the seed corpus honest: between
// them, FuzzQueueOrder's seeds must reach every tier, both refill sources,
// migration and compaction in each tier, both sorts and both parts of cur —
// so the fuzzer starts from inputs
// that already cross every seam, and a change to the decoder or the geometry
// that strands the corpus in cur fails here.
func TestQueueOrderSeedsReachAllTiers(t *testing.T) {
	var reach tierReach
	for _, seed := range queueSeeds() {
		reach.add(runQueueOps(t, seed))
	}
	reach.requireAll(t)
	if reach.sorted <= sortCutoff || reach.sidePops == 0 {
		t.Errorf("cur's paths not all reached: largest bucket sorted %d (insertion sort up to %d), %d pops from side over a non-empty run",
			reach.sorted, sortCutoff, reach.sidePops)
	}
	if r := reach.timers; r.lazy == 0 || r.fallback == 0 || r.movedKept == 0 {
		t.Errorf("timer paths not all reached: %+v", r)
	}
	if reach.peak <= slotPage || reach.seam[0] == 0 || reach.seam[1] == 0 {
		t.Errorf("slot-page seam not crossed: at most %d events pending (a page holds %d); %d and %d operations on the slots before and after it",
			reach.peak, slotPage, reach.seam[0], reach.seam[1])
	}
}
