package sim

// Execution-profiler integration tests. Every run carries its profile, and
// the profile's contract has two halves: it must never reach the record (the
// marshalled result and ResultDigest are the same without it), and what it
// reports must be internally consistent — the partition-independent counters
// identical across shard counts, the partition-dependent ones summing
// correctly within each run.

import (
	"bytes"
	"encoding/json"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// runExec runs one configuration on fresh flow copies and returns the Result
// with its execution profile attached.
func runExec(t testing.TB, opts Options, flows []*packet.Flow, shards int) *Result {
	t.Helper()
	copies := make([]*packet.Flow, len(flows))
	for i, f := range flows {
		c := *f
		copies[i] = &c
	}
	opts.Shards = shards
	res, err := Run(opts, copies)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if res.Exec == nil {
		t.Fatalf("shards=%d: Result.Exec is nil", shards)
	}
	return res
}

// TestExecStatsDigestParity is the digest-neutrality proof: a run's
// marshalled result and its ResultDigest are byte-identical with its profile
// dropped, because Exec is excluded from both.
func TestExecStatsDigestParity(t *testing.T) {
	topo := smallClos()
	flows := goldenFlows(t, topo)
	for _, shards := range []int{0, 4} {
		res := runExec(t, goldenOpts(SchemeBFC, topo), flows, shards)
		bare := *res
		bare.Exec = nil
		on, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		off, err := json.Marshal(&bare)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if !bytes.Equal(off, on) {
			t.Errorf("shards=%d: marshalled result differs with the profile attached (%d vs %d bytes)",
				shards, len(off), len(on))
		}
		dOff, err := ResultDigest(&bare)
		if err != nil {
			t.Fatalf("digest: %v", err)
		}
		dOn, err := ResultDigest(res)
		if err != nil {
			t.Fatalf("digest: %v", err)
		}
		if dOff != dOn {
			t.Errorf("shards=%d: ResultDigest differs with the profile attached: %s vs %s", shards, dOff, dOn)
		}
	}
}

// TestExecStatsMergeDeterminism runs the same fat-tree workload at shard
// counts 1, 2 and 4 and checks the profile's consistency rules:
//
//   - TotalEvents is partition-independent — identical at every shard count
//     and equal to Result.Events;
//   - per-shard event counts plus the coordinator's (ticks, scenario events)
//     sum to TotalEvents within each run;
//   - a one-shard run is the same coordinator loop: one shard, no boundary
//     traffic, and one window per barrier plus the closing window;
//   - sharded runs report windows, barriers and per-shard activity;
//   - wall-clock fields are observational, so only monotone/non-zero claims
//     hold (never equality across runs).
func TestExecStatsMergeDeterminism(t *testing.T) {
	topo := topology.NewFatTree(topology.FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	flows := fatTreeFlows(t, topo, 60*units.Microsecond)
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 60 * units.Microsecond
	opts.Drain = 400 * units.Microsecond
	opts.Seed = 11

	var totalEvents uint64
	for _, shards := range []int{1, 2, 4} {
		res := runExec(t, opts, flows, shards)
		ex := res.Exec
		if ex.TotalEvents != res.Events {
			t.Fatalf("shards=%d: profile TotalEvents=%d but Result.Events=%d",
				shards, ex.TotalEvents, res.Events)
		}
		if totalEvents == 0 {
			totalEvents = ex.TotalEvents
		} else if ex.TotalEvents != totalEvents {
			t.Errorf("shards=%d: TotalEvents=%d, want the partition-independent %d",
				shards, ex.TotalEvents, totalEvents)
		}

		var shardEvents uint64
		for i := range ex.Shards {
			ss := &ex.Shards[i]
			if ss.Shard != i {
				t.Errorf("shards=%d: shard %d labelled %d", shards, i, ss.Shard)
			}
			shardEvents += ss.Events
			if ss.Events > 0 && ss.HeapHighWater <= 0 {
				t.Errorf("shards=%d: shard %d executed %d events with heap high-water %d",
					shards, i, ss.Events, ss.HeapHighWater)
			}
			if ss.BusyNS <= 0 && ss.Events > 0 {
				t.Errorf("shards=%d: shard %d executed events in zero wall-clock", shards, i)
			}
		}
		if shardEvents+ex.CoordEvents != ex.TotalEvents {
			t.Errorf("shards=%d: shard events %d + coordinator events %d != total %d",
				shards, shardEvents, ex.CoordEvents, ex.TotalEvents)
		}

		if shards == 1 {
			if len(ex.Shards) != 1 || ex.Shards[0].Boundary.Pushes != 0 {
				t.Errorf("one-shard profile: %d shards, %d boundary pushes; want 1 shard, 0 pushes",
					len(ex.Shards), ex.Shards[0].Boundary.Pushes)
			}
			if ex.Barriers == 0 || ex.Windows != ex.Barriers+1 {
				t.Errorf("one-shard profile: %d windows, %d barriers; want windows = barriers + 1 > 1",
					ex.Windows, ex.Barriers)
			}
			continue
		}
		if len(ex.Shards) != shards {
			t.Fatalf("profile has %d shards, want %d", len(ex.Shards), shards)
		}
		if ex.Windows == 0 || ex.Barriers == 0 {
			t.Errorf("shards=%d: sharded run reports %d windows, %d barriers",
				shards, ex.Windows, ex.Barriers)
		}
		if ex.WallNS <= 0 {
			t.Errorf("shards=%d: wall-clock %d, want > 0", shards, ex.WallNS)
		}
		if u := ex.Utilization(); u <= 0 || u > 1 {
			t.Errorf("shards=%d: utilization %v outside (0, 1]", shards, u)
		}
		if len(ex.Spans) == 0 {
			t.Errorf("shards=%d: no window spans recorded", shards)
		}
		// Boundary traffic must exist on a genuinely partitioned fat-tree:
		// pods exchange packets, so at least one outbound ring saw pushes.
		var pushes uint64
		for i := range ex.Shards {
			pushes += ex.Shards[i].Boundary.Pushes
		}
		if pushes == 0 {
			t.Errorf("shards=%d: no boundary pushes recorded on a multi-pod fabric", shards)
		}
	}
}
