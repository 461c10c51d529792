package eventsim

import (
	"math/rand"
	"slices"
	"testing"

	"bfc/internal/units"
)

// Property tests for the event order over random scheduling DAGs: every
// dispatch's key must come out strictly increasing (keys are unique, so the
// order is strict), and replaying the recorded keys through the boundary
// injection path on a fresh scheduler, in any order, must dispatch them in
// the same order.

// dagBuilder grows a random scheduling DAG online: each dispatch records its
// key and schedules a random batch of children through randomly chosen
// scheduling paths, for random targets, until the event budget runs out.
type dagBuilder struct {
	t      *testing.T
	sched  *Scheduler
	rng    *rand.Rand
	budget int
	keys   []Key
	// handles collects cancellation handles; some are cancelled mid-run to
	// exercise stale-entry compaction interleaved with ordering.
	handles []Event
	// reach records which queue tier every scheduled record was filed under.
	reach tierReach
}

// fire records the dispatching event's key and spawns children.
func (d *dagBuilder) fire() {
	d.keys = append(d.keys, d.sched.CurrentKey())
	d.spawn()
}

// spawn schedules 0-3 children of the current dispatch through random paths.
// Half the delays are short with plenty of exact collisions — delay 0 keeps
// generations growing at one instant — and the other half cross the queue's
// tiers (see tierDelays); targets come from a small range, so owners collide
// on instant and generation and only sequence numbers tell them apart.
func (d *dagBuilder) spawn() {
	n := d.rng.Intn(4)
	for i := 0; i < n && d.budget > 0; i++ {
		d.budget--
		at := d.sched.Now() + drawTierDelay(d.rng)
		target := int32(d.rng.Intn(4))
		cb := func() { d.fire() }
		before := tierSizes(d.sched)
		switch d.rng.Intn(6) {
		case 0:
			d.handles = append(d.handles, d.sched.Schedule(at, cb))
		case 1:
			d.sched.ScheduleCallTo(at, target, func(any) { cb() }, nil)
		case 2:
			d.sched.ScheduleCall(at, func(any) { cb() }, nil)
		case 3:
			// Boundary-style: the child's key taken exactly as a cross-shard
			// send takes it, then filed under it. The event must dispatch
			// under that key.
			k := d.sched.ChildKey(at, target)
			d.sched.ScheduleCallInjected(k, target, func(any) {
				if cur := d.sched.CurrentKey(); cur != k {
					d.t.Fatalf("injected event dispatched under %+v, injected as %+v", cur, k)
				}
				cb()
			}, nil)
		case 4:
			d.handles = append(d.handles, d.sched.Schedule(at, cb))
			// Occasionally cancel a random outstanding handle (possibly
			// already fired — Cancel on stale handles must be a no-op).
			if d.rng.Intn(3) == 0 {
				h := d.handles[d.rng.Intn(len(d.handles))]
				if d.sched.Pending(h) {
					d.sched.Cancel(h)
				}
			}
		case 5:
			// No child, but a burst of decoys across all tiers, cancelled at
			// once. They never fire, but they consume sequence numbers like
			// any sibling and leave enough dead records behind for
			// compaction to sweep cur, ring and far mid-run.
			d.budget++
			decoys := make([]Event, d.rng.Intn(60))
			for j := range decoys {
				decoys[j] = d.sched.Schedule(d.sched.Now()+drawTierDelay(d.rng), func() { d.t.Fatal("cancelled decoy fired") })
			}
			for _, h := range decoys {
				d.sched.Cancel(h)
			}
		}
		d.reach.noteInsert(d.sched, before)
	}
}

func runRandomDAG(t *testing.T, seed int64, budget int, reach *tierReach) []Key {
	t.Helper()
	d := &dagBuilder{
		t:      t,
		sched:  New(),
		rng:    rand.New(rand.NewSource(seed)),
		budget: budget,
	}
	// Roots: set-up schedules at distinct and colliding instants, each its
	// target's own, like flow arrivals — near, parked and far.
	roots := 8 + d.rng.Intn(8)
	for i := 0; i < roots; i++ {
		at := units.Time(d.rng.Intn(6))*5 + [...]units.Time{0, testBucket, 5 * testWindow}[d.rng.Intn(3)]
		d.sched.ScheduleCallTo(at, int32(d.rng.Intn(4)), func(any) { d.fire() }, nil)
	}
	d.sched.RunUntil(1 << 40)
	if live(d.sched) != 0 {
		t.Fatalf("seed %d: %d events still pending after horizon", seed, live(d.sched))
	}
	if len(d.keys) < roots {
		t.Fatalf("seed %d: recorded %d keys for %d roots", seed, len(d.keys), roots)
	}
	requireDrained(t, d.sched)
	d.reach.collect(d.sched)
	reach.add(d.reach)
	return d.keys
}

// TestDispatchOrderIsKeyOrder runs random scheduling DAGs and requires every
// dispatch's key to order strictly after the one before it: the queue pops in
// key order, and no two events share a key.
func TestDispatchOrderIsKeyOrder(t *testing.T) {
	var reach tierReach
	for seed := int64(1); seed <= 25; seed++ {
		keys := runRandomDAG(t, seed, 2000, &reach)
		for i := 1; i < len(keys); i++ {
			if !keys[i-1].Less(keys[i]) {
				t.Fatalf("seed %d: dispatch %d key %+v does not order after dispatch %d key %+v",
					seed, i, keys[i], i-1, keys[i-1])
			}
		}
	}
	reach.requireAll(t)
}

// TestInjectedReplayPreservesOrder replays a recorded run through the
// boundary-injection path: every key from a random DAG run is injected into a
// fresh scheduler in shuffled order (as a barrier drain may), and the replay
// must dispatch them in the recorded order, each under exactly the key it
// was injected under.
func TestInjectedReplayPreservesOrder(t *testing.T) {
	var recorded, replayed tierReach
	for seed := int64(1); seed <= 8; seed++ {
		keys := runRandomDAG(t, seed, 800, &recorded)
		shuffled := slices.Clone(keys)
		rng := rand.New(rand.NewSource(seed * 31))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		replay := New()
		var got []Key
		for _, k := range shuffled {
			before := tierSizes(replay)
			replay.ScheduleCallInjected(k, 0, func(any) {
				if cur := replay.CurrentKey(); cur != k {
					t.Fatalf("seed %d: replayed event dispatched under %+v, injected as %+v", seed, cur, k)
				}
				got = append(got, k)
			}, nil)
			replayed.noteInsert(replay, before)
		}
		replay.RunUntil(1 << 40)
		if !slices.Equal(got, keys) {
			t.Fatalf("seed %d: the replay of %d keys dispatched %d, or in another order", seed, len(keys), len(got))
		}
		requireDrained(t, replay)
		replayed.collect(replay)
	}
	// The recording runs cancel; the replays only inject, so there is nothing
	// for compaction to sweep there — but every injected record must still
	// have crossed the tiers to mean anything.
	recorded.requireAll(t)
	replayed.requireSeams(t)
}
