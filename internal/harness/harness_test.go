package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// testJobs builds a small but real suite: a scheme x load grid over a
// 4-host single-switch topology, fast enough to run many times per test.
func testJobs(t *testing.T) []Job {
	t.Helper()
	grid := Grid{
		Base: Job{
			Name: "test",
			Topology: func() *topology.Topology {
				return topology.NewSingleSwitch(topology.SingleSwitchConfig{
					NumHosts: 4, LinkRate: 100 * units.Gbps, LinkDelay: 1 * units.Microsecond,
				})
			},
			Flows: func(topo *topology.Topology) []*packet.Flow {
				hosts := topo.Hosts()
				return []*packet.Flow{
					{ID: 1, Src: hosts[0], Dst: hosts[1], Size: 30 * units.KB},
					{ID: 2, Src: hosts[2], Dst: hosts[1], Size: 8 * units.KB, StartTime: 2 * units.Microsecond},
					{ID: 3, Src: hosts[3], Dst: hosts[0], Size: 2 * units.KB, StartTime: 1 * units.Microsecond},
				}
			},
			Options: []func(*sim.Options){func(o *sim.Options) {
				o.Duration = 20 * units.Microsecond
				o.Drain = 100 * units.Microsecond
			}},
		},
		Axes: []Axis{
			SchemeAxis([]sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN}),
			IntAxis("queues", []int{8, 32}, func(j *Job, v int) {
				j.Options = append(j.Options, func(o *sim.Options) { o.NumQueues = v })
			}),
		},
	}
	return grid.Jobs()
}

// tally counts a run's progress reports: jobs executed and jobs taken from
// the store.
type tally struct{ ran, cached int }

func (c *tally) progress(p Progress) {
	if p.Cached {
		c.cached++
	} else {
		c.ran++
	}
}

func marshalRecords(t *testing.T, recs []*Record) []byte {
	t.Helper()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGridExpansion(t *testing.T) {
	jobs := testJobs(t)
	if len(jobs) != 4 {
		t.Fatalf("grid expanded to %d jobs, want 4", len(jobs))
	}
	names := map[string]bool{}
	hashes := map[string]bool{}
	for i := range jobs {
		j := &jobs[i]
		names[j.Name] = true
		hashes[j.Hash()] = true
		if !strings.HasPrefix(j.Name, "test/scheme=") {
			t.Fatalf("job name %q missing axis labels", j.Name)
		}
		if j.Meta["scheme"] == "" || j.Meta["queues"] == "" {
			t.Fatalf("job %q meta incomplete: %v", j.Name, j.Meta)
		}
	}
	if len(names) != 4 || len(hashes) != 4 {
		t.Fatalf("expansion produced duplicate names (%d) or hashes (%d)", len(names), len(hashes))
	}
	// First axis slowest: the two leading jobs share the scheme label.
	if jobs[0].Meta["scheme"] != jobs[1].Meta["scheme"] {
		t.Fatalf("axis order wrong: %q then %q", jobs[0].Name, jobs[1].Name)
	}
	// Axis mutations must not leak between jobs: base stays untouched.
	if len(jobs[0].Options) == len(jobs[1].Options) && &jobs[0].Options[0] == &jobs[1].Options[0] {
		t.Fatal("expanded jobs alias the base Options slice")
	}
}

func TestDeriveSeed(t *testing.T) {
	a, b := DeriveSeed("fig05a", "workload"), DeriveSeed("fig05a", "workload")
	if a != b {
		t.Fatal("DeriveSeed is not stable")
	}
	if a <= 0 {
		t.Fatalf("seed %d not positive", a)
	}
	if DeriveSeed("fig05a") == DeriveSeed("fig05b") {
		t.Fatal("different keys produced the same seed")
	}
	// Part boundaries matter: ("ab","c") != ("a","bc").
	if DeriveSeed("ab", "c") == DeriveSeed("a", "bc") {
		t.Fatal("seed derivation ignores part boundaries")
	}
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		var c tally
		recs, err := (&Runner{Parallel: workers, Progress: c.progress}).Run(testJobs(t))
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		if c.ran != 4 {
			t.Fatalf("parallel=%d executed %d jobs, want 4", workers, c.ran)
		}
		got := marshalRecords(t, recs)
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("parallel=%d records differ from serial run", workers)
		}
	}
}

func TestRunnerResumeSkipsCompletedJobs(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var first tally
	firstRecs, err := (&Runner{Parallel: 4, Store: store, Progress: first.progress}).Run(testJobs(t))
	if err != nil {
		t.Fatal(err)
	}
	if first != (tally{ran: 4}) {
		t.Fatalf("first run executed/skipped = %d/%d, want 4/0", first.ran, first.cached)
	}

	var second tally
	secondRecs, err := (&Runner{Parallel: 4, Store: store, Resume: true, Progress: second.progress}).Run(testJobs(t))
	if err != nil {
		t.Fatal(err)
	}
	if second != (tally{cached: 4}) {
		t.Fatalf("resumed run executed/skipped = %d/%d, want 0/4", second.ran, second.cached)
	}
	if string(marshalRecords(t, secondRecs)) != string(marshalRecords(t, firstRecs)) {
		t.Fatal("resumed records differ from the original run")
	}

	// A new job alongside completed ones executes exactly once.
	jobs := testJobs(t)
	extra := jobs[0]
	extra.Name = "test/extra"
	jobs = append(jobs, extra)
	var third tally
	if _, err := (&Runner{Parallel: 4, Store: store, Resume: true, Progress: third.progress}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if third != (tally{ran: 1, cached: 4}) {
		t.Fatalf("partial resume executed/skipped = %d/%d, want 1/4", third.ran, third.cached)
	}
}

func TestRunnerProgressReporting(t *testing.T) {
	var events []Progress
	r := &Runner{Parallel: 2, Progress: func(p Progress) { events = append(events, p) }}
	if _, err := r.Run(testJobs(t)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	for i, e := range events {
		if e.Done != i+1 || e.Total != 4 || e.Job == "" || e.Cached {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
	}
}

func TestRunnerRejectsDuplicateNames(t *testing.T) {
	// Two jobs with the same name but different configuration have distinct
	// content hashes, yet Job.Seed() derives from the name alone — they would
	// silently share a simulation seed. The suite must refuse to run them.
	jobs := testJobs(t)
	jobs[1].Name = jobs[0].Name
	jobs[1].Meta = map[string]string{"queues": "different"}
	if h0, h1 := jobs[0].Hash(), jobs[1].Hash(); h0 == h1 {
		t.Fatalf("test setup: hashes should differ, both %s", h0)
	}
	if s0, s1 := jobs[0].Seed(), jobs[1].Seed(); s0 != s1 {
		t.Fatalf("test setup: seeds should collide (%d vs %d)", s0, s1)
	}
	if _, err := (&Runner{}).Run(jobs); err == nil || !strings.Contains(err.Error(), "duplicate job name") {
		t.Fatalf("duplicate name with distinct hash not rejected: %v", err)
	}
}

// TestRunnerConvertsPanicsToErrors: a panicking Topology or Flows builder
// comes back from Job.Execute — the one panic fence — as the job's error, for
// a direct caller (the service pool, the fleet's executors) and through
// Runner.Run alike.
func TestRunnerConvertsPanicsToErrors(t *testing.T) {
	for _, builder := range []string{"Topology", "Flows"} {
		jobs := testJobs(t)
		bad := &jobs[2]
		if builder == "Topology" {
			bad.Topology = func() *topology.Topology { panic("bad sweep point") }
		} else {
			bad.Flows = func(*topology.Topology) []*packet.Flow { panic("bad sweep point") }
		}
		want := fmt.Sprintf("harness: job %q panicked: bad sweep point", bad.Name)
		if rec, err := bad.Execute(); rec != nil || err == nil || err.Error() != want {
			t.Fatalf("%s panic: Execute = %v, %v; want error %q", builder, rec, err, want)
		}
		if _, err := (&Runner{Parallel: 2}).Run(jobs); err == nil || err.Error() != want {
			t.Fatalf("%s panic: Run error = %v; want %q", builder, err, want)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t)
	rec, err := jobs[0].Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.Get(rec.Hash)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if got.Name != rec.Name || got.Scheme != rec.Scheme || got.Seed != rec.Seed {
		t.Fatalf("round trip changed identity: %+v vs %+v", got, rec)
	}
	// The decoded result must still answer the queries figures make.
	if got.Result.FCT.Count() != rec.Result.FCT.Count() {
		t.Fatal("decoded result lost FCT samples")
	}
	if got.Result.FCT.OverallPercentile(99) != rec.Result.FCT.OverallPercentile(99) {
		t.Fatal("decoded result changed FCT percentiles")
	}
	if got.Result.BufferOccupancy.Count() != rec.Result.BufferOccupancy.Count() {
		t.Fatal("decoded result lost buffer samples")
	}
	all, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Hash != rec.Hash {
		t.Fatalf("List returned %d entries", len(all))
	}
	if _, ok, _ := store.Get("deadbeef00000000"); ok {
		t.Fatal("Get of a missing hash reported ok")
	}
}
