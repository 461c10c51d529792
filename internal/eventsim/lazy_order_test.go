package eventsim

import (
	"math/rand"
	"sort"
	"testing"

	"bfc/internal/units"
)

// Property test for the lazy pedigree representation: the engine orders its
// three-tier queue with entryLess over compact state (32-byte index entries,
// hot chain0 prefix, interned pedigree records compared only on pedigree
// inequality), while observers and the sharded engine see the eagerly
// materialized wire Key. The two must agree — an event stream executed by the
// engine must come out exactly in materialized-Key order (sequence numbers
// breaking full-key ties), for any scheduling DAG the simulator can produce.
// A divergence would mean a sharded run (which merges and injects by wire
// Key) could interleave events differently from the serial engine, silently
// breaking byte-parity.
//
// "Any DAG the simulator can produce" carries the ChainDepth contract from
// the package doc: a Key records the last ChainDepth generations, so two
// causally ordered events agree with their wire keys only if their lineages
// do not stay at one instant for ChainDepth straight generations (a run that
// long shifts a still-identical window past the divergence point). Physical
// simulations satisfy this structurally — every link hop advances time, and
// zero-delay cascades within a device are short — so the generator bounds
// its same-instant runs at ChainDepth-1 generations, and the test documents
// (rather than hides) the boundary: see TestChainDepthTruncationBoundary.

// dagBuilder grows a random scheduling DAG online: each dispatch records its
// materialized key and schedules a random batch of children through randomly
// chosen scheduling paths, until the event budget runs out.
type dagBuilder struct {
	t      *testing.T
	sched  *Scheduler
	rng    *rand.Rand
	budget int
	// uncap disables the ChainDepth-1 bound on same-instant generation runs,
	// taking the generator outside the engine's documented contract (used
	// only to pin where the contract's boundary lies).
	uncap bool
	keys  []Key
	// handles collects cancellation handles; some are cancelled mid-run to
	// exercise stale-entry compaction interleaved with ordering.
	handles []Event
	// reach records which queue tier every scheduled record was filed under.
	reach tierReach
}

// fire records the dispatching event's materialized key and spawns children.
// run counts the consecutive same-instant generations ending at this event.
func (d *dagBuilder) fire(run int) {
	d.keys = append(d.keys, d.sched.CurrentKey())
	d.spawn(run)
}

// spawn schedules 0-3 children of the current dispatch through random paths.
func (d *dagBuilder) spawn(run int) {
	n := d.rng.Intn(4)
	for i := 0; i < n && d.budget > 0; i++ {
		d.budget--
		// Half short delays with plenty of exact collisions: delay 0 keeps
		// chains growing at one instant, and the coarse grid (multiples of
		// 5ps) makes unrelated lineages collide on whole chain prefixes,
		// which pushes comparisons deep into tags/kids/seq territory. The
		// other half cross the queue's tiers (see tierDelays) on a grid just
		// as coarse. Runs of same-instant generations are capped at
		// ChainDepth-1 per the engine's contract (see the file comment).
		delay := drawTierDelay(d.rng)
		if delay == 0 && run >= ChainDepth-1 && !d.uncap {
			delay = units.Time(1+d.rng.Intn(3)) * 5
		}
		childRun := 0
		if delay == 0 {
			childRun = run + 1
		}
		at := d.sched.Now() + delay
		cb := func() { d.fire(childRun) }
		before := tierSizes(d.sched)
		switch d.rng.Intn(7) {
		case 0:
			d.handles = append(d.handles, d.sched.Schedule(at, cb))
		case 1:
			// Tagged root-style child: small tag range forces tag collisions.
			d.sched.ScheduleCallTagged(at, uint64(d.rng.Intn(3)), func(any) { cb() }, nil)
		case 2, 3:
			d.sched.ScheduleCall(at, func(any) { cb() }, nil)
		case 4:
			// Boundary-style: materialize the child's wire key exactly as a
			// cross-shard send would, then inject it back — the re-interning
			// path the sharded engine's drain uses. The injected event must
			// materialize back to the same key at dispatch.
			k := d.sched.ChildKey(at)
			d.sched.ScheduleCallInjected(k, func(any) {
				if cur := d.sched.CurrentKey(); cur != k {
					d.t.Fatalf("injected event materialized key %+v, injected as %+v", cur, k)
				}
				cb()
			}, nil)
		case 5:
			d.handles = append(d.handles, d.sched.Schedule(at, cb))
			// Occasionally cancel a random outstanding handle (possibly
			// already fired — Cancel on stale handles must be a no-op).
			if len(d.handles) > 0 && d.rng.Intn(3) == 0 {
				h := d.handles[d.rng.Intn(len(d.handles))]
				if d.sched.Pending(h) {
					d.sched.Cancel(h)
				}
			}
		case 6:
			// No child, but a burst of decoys across all tiers, cancelled at
			// once. They never fire, but they consume child indexes like any
			// sibling and leave enough dead records behind for compaction to
			// sweep cur, ring and far mid-run.
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
	// Roots: a mix of distinct and colliding instants and tags, all scheduled
	// during setup (kid 0, SetupTime chains) like flow arrivals are — near,
	// parked and far.
	roots := 8 + d.rng.Intn(8)
	for i := 0; i < roots; i++ {
		at := units.Time(d.rng.Intn(6))*5 + [...]units.Time{0, testBucket, 5 * testWindow}[d.rng.Intn(3)]
		cb := func() { d.fire(0) }
		if d.rng.Intn(2) == 0 {
			d.sched.ScheduleCallTagged(at, uint64(d.rng.Intn(3)), func(any) { cb() }, nil)
		} else {
			d.sched.Schedule(at, cb)
		}
	}
	d.sched.RunUntil(1 << 40)
	if d.sched.live != 0 {
		t.Fatalf("seed %d: %d events still pending after horizon", seed, d.sched.live)
	}
	if len(d.keys) < roots {
		t.Fatalf("seed %d: recorded %d keys for %d roots", seed, len(d.keys), roots)
	}
	requireDrained(t, d.sched)
	d.reach.collect(d.sched)
	reach.add(d.reach)
	return d.keys
}

// TestLazyOrderMatchesEagerKeys runs random scheduling DAGs and requires the
// dispatch order to be sorted under the eager wire-Key comparison: for every
// consecutive pair, the later event's key must not order strictly before the
// earlier one's. This is exactly "lazy in-heap comparison == eager
// materialized comparison", since a single counterexample pair would make the
// materialized sequence dip.
func TestLazyOrderMatchesEagerKeys(t *testing.T) {
	var reach tierReach
	for seed := int64(1); seed <= 25; seed++ {
		keys := runRandomDAG(t, seed, 2000, &reach)
		for i := 1; i < len(keys); i++ {
			if keys[i].Less(keys[i-1]) {
				t.Fatalf("seed %d: dispatch %d key %+v orders before dispatch %d key %+v — lazy and eager ordering diverge",
					seed, i, keys[i], i-1, keys[i-1])
			}
		}
	}
	reach.requireAll(t)
}

// TestInjectedReplayPreservesOrder replays a recorded run through the
// boundary-injection path: every key from a random DAG run is re-injected
// into a fresh scheduler in shuffled order (as a barrier drain would), and
// the replay must dispatch in key order with each event materializing exactly
// the key it was injected under.
func TestInjectedReplayPreservesOrder(t *testing.T) {
	var recorded, replayed tierReach
	for seed := int64(1); seed <= 8; seed++ {
		keys := runRandomDAG(t, seed, 800, &recorded)
		shuffled := append([]Key(nil), keys...)
		rng := rand.New(rand.NewSource(seed * 31))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		replay := New()
		var got []Key
		for _, k := range shuffled {
			k := k
			before := tierSizes(replay)
			replay.ScheduleCallInjected(k, func(any) {
				cur := replay.CurrentKey()
				if cur != k {
					t.Fatalf("seed %d: replayed event materialized %+v, injected as %+v", seed, cur, k)
				}
				got = append(got, cur)
			}, nil)
			replayed.noteInsert(replay, before)
		}
		replay.RunUntil(1 << 40)
		if len(got) != len(keys) {
			t.Fatalf("seed %d: replay fired %d of %d events", seed, len(got), len(keys))
		}
		// The replay must come out key-sorted; ties (distinct events whose
		// truncated pedigrees fully collide) may come out in either seq
		// order, so compare against a stable sort of what the replay saw.
		want := append([]Key(nil), got...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Less(want[j]) })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: replay order diverges from key order at dispatch %d", seed, i)
			}
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

// TestChainDepthTruncationBoundary pins the documented limit of the wire key:
// a lineage that stays at ONE instant for ChainDepth straight generations
// slides the recorded window past the divergence point, so the deepest
// recorded generations of parent and child misalign and the eager comparison
// can invert a causal pair. The serial engine never misorders such pairs (a
// child cannot enter the heap before its parent fired), and the sharded
// engine never sees them across a boundary (links have positive delay, so
// chains crossing shards always advance time); this test documents the
// boundary so a future ChainDepth change is made consciously.
func TestChainDepthTruncationBoundary(t *testing.T) {
	// Run the same generator with the same-instant cap removed: DAGs with
	// same-instant runs past ChainDepth generations do produce key
	// inversions (this is the contract's boundary, not an engine bug — the
	// dispatch order itself remains causal). If no seed inverts, the cap in
	// spawn() is stricter than the real boundary and the main property test
	// is weaker than it could be. (A zero delay is one draw in eight under
	// the tier-crossing mix, so it takes a few more seeds than it used to:
	// the first inversion is at seed 11.)
	inverted := false
	for seed := int64(1); seed <= 40 && !inverted; seed++ {
		d := &dagBuilder{
			t:      t,
			sched:  New(),
			rng:    rand.New(rand.NewSource(seed)),
			budget: 2000,
			uncap:  true,
		}
		for i := 0; i < 8; i++ {
			at := units.Time(d.rng.Intn(3)) * 5
			d.sched.Schedule(at, func() { d.fire(0) })
		}
		d.sched.RunUntil(1 << 40)
		for i := 1; i < len(d.keys); i++ {
			if d.keys[i].Less(d.keys[i-1]) {
				inverted = true
				break
			}
		}
	}
	if !inverted {
		t.Error("no key inversion past ChainDepth — truncation boundary is deeper than documented, tighten the generator cap")
	}
}
