package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"bfc/internal/harness"
	"bfc/internal/scenario"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/units"
)

// TestFigureTable checks every entry of the figure table against the
// contract its consumers rely on: jobs compile with the scale prefix and the
// fig/scale labels, no two figures share a job name or content hash (fig06,
// which is a second rendering of fig05a's jobs, is the one deliberate alias),
// and the figure renders non-empty, byte-identical output from a serial and
// from an 8-worker run.
func TestFigureTable(t *testing.T) {
	scale := Tiny()
	var union []harness.Job
	byKey := map[string][]harness.Job{}
	for _, f := range Figures() {
		if f.Render == nil {
			t.Fatalf("figure %s has no renderer", f.Key)
		}
		if got, ok := FigureByKey(f.Token()); !ok || got.Key != f.Key {
			t.Fatalf("figure %s does not resolve from its token %q", f.Key, f.Token())
		}
		// jobs is the figure's default grid; toRun is what the render check
		// below simulates — two schemes where the axis is selectable, which
		// keeps the six-scheme figures (and the race build) affordable.
		var jobs, toRun []harness.Job
		if f.Jobs != nil {
			jobs = f.Jobs(scale, nil)
			if len(jobs) == 0 {
				t.Fatalf("figure %s compiled no jobs", f.Key)
			}
			toRun = jobs
			if f.SchemesSelectable {
				toRun = f.Jobs(scale, []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})
				if len(toRun) == 0 || len(toRun)%2 != 0 {
					t.Fatalf("figure %s compiled %d jobs for 2 schemes", f.Key, len(toRun))
				}
			}
		}
		byKey[f.Key] = jobs
		wantFig := f.Key
		if f.Key == "fig06" {
			wantFig = "fig05a"
		} else {
			union = append(union, jobs...)
		}
		for _, j := range jobs {
			if !strings.HasPrefix(j.Name, scale.Name+"/") {
				t.Fatalf("figure %s job %q does not carry the scale prefix", f.Key, j.Name)
			}
			if j.Meta["fig"] != wantFig || j.Meta["scale"] != scale.Name {
				t.Fatalf("figure %s job %q has Meta fig=%q scale=%q", f.Key, j.Name, j.Meta["fig"], j.Meta["scale"])
			}
		}

		render := func(workers int) string {
			recs, err := (&harness.Runner{Parallel: workers}).Run(toRun)
			if err != nil {
				t.Fatalf("figure %s, parallel=%d: %v", f.Key, workers, err)
			}
			var sb strings.Builder
			f.Render(&sb, recs)
			return sb.String()
		}
		serial, parallel := render(1), render(8)
		if serial == "" {
			t.Fatalf("figure %s rendered nothing", f.Key)
		}
		if serial != parallel {
			t.Fatalf("figure %s renders differently from 8 workers:\n%s\nvs serial\n%s", f.Key, parallel, serial)
		}
	}
	if err := harness.ValidateSuite(union); err != nil {
		t.Fatalf("figures share a job: %v", err)
	}
	alias, base := byKey["fig06"], byKey["fig05a"]
	if len(alias) == 0 || len(alias) != len(base) {
		t.Fatalf("fig06 compiled %d jobs, fig05a %d", len(alias), len(base))
	}
	for i := range alias {
		if alias[i].Name != base[i].Name || alias[i].Hash() != base[i].Hash() {
			t.Fatalf("fig06 job %d is %q/%s, want fig05a's %q/%s",
				i, alias[i].Name, alias[i].Hash(), base[i].Name, base[i].Hash())
		}
	}
}

func TestFigureByKey(t *testing.T) {
	for _, key := range []string{"fig05a", "FIG05A", " 5a ", "7", "fig07", "17"} {
		if _, ok := FigureByKey(key); !ok {
			t.Fatalf("FigureByKey(%q) did not resolve", key)
		}
	}
	for _, key := range []string{"fig99", "", "fig", "5"} {
		if _, ok := FigureByKey(key); ok {
			t.Fatalf("FigureByKey(%q) resolved", key)
		}
	}
}

var updateIdentities = flag.Bool("update-identities", false,
	"rewrite the hash column of testdata/registry_identities.golden (a renamed job still fails)")

// TestJobIdentitiesUnchanged pins the property every result cache depends
// on: the job names and content hashes the ten keys served before the figure
// table compile to — at tiny, reduced and full — are the ones recorded in
// testdata/registry_identities.golden, so bfcd stores, -out directories and
// the fleet's dedup keep aliasing the same artifacts. A figure added later
// gets new lines. A name never changes: it derives the job's seeds. A hash
// changes only when what a job declares does — a sim.ModelVersion bump moves
// every hash, and so does a change to what a point's digest covers — and is
// then re-recorded, once, by running this test with -update-identities.
func TestJobIdentitiesUnchanged(t *testing.T) {
	const path = "testdata/registry_identities.golden"
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	compiled := map[string][]harness.Job{} // "scale key" -> jobs not yet matched
	recorded := make([]string, 0, len(want))
	for n, line := range want {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("golden line %d malformed: %q", n+1, line)
		}
		group := f[0] + " " + f[1]
		if _, ok := compiled[group]; !ok {
			scale, err := ScaleByName(f[0])
			if err != nil {
				t.Fatal(err)
			}
			fig, ok := FigureByKey(f[1])
			if !ok {
				t.Fatalf("golden line %d names unknown figure %q", n+1, f[1])
			}
			compiled[group] = fig.Jobs(scale, nil)
		}
		jobs := compiled[group]
		if len(jobs) == 0 {
			t.Fatalf("%s compiles fewer jobs than the golden lists (line %d)", group, n+1)
		}
		if jobs[0].Name != f[2] || !*updateIdentities && jobs[0].Hash() != f[3] {
			t.Fatalf("%s: job is %q/%s, golden line %d says %q/%s", group, jobs[0].Name, jobs[0].Hash(), n+1, f[2], f[3])
		}
		recorded = append(recorded, group+" "+jobs[0].Name+" "+jobs[0].Hash())
		compiled[group] = jobs[1:]
	}
	for group, rest := range compiled {
		if len(rest) != 0 {
			t.Fatalf("%s compiles %d jobs the golden does not list", group, len(rest))
		}
	}
	if *updateIdentities {
		if err := os.WriteFile(path, []byte(strings.Join(recorded, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("job identities rewritten to %s", path)
	}
}

func TestScaleByName(t *testing.T) {
	for name, want := range map[string]string{"tiny": "tiny", "reduced": "reduced", "full": "full", "": "reduced"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != want {
			t.Fatalf("ScaleByName(%q) = %q, %v", name, s.Name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestScenarioJobsDigestKeysContent(t *testing.T) {
	scale := Tiny()
	specA := &scenario.Spec{Name: "flap", Events: []scenario.Event{
		{At: 10 * units.Microsecond, Kind: scenario.LinkDown, Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
		{At: 50 * units.Microsecond, Kind: scenario.LinkUp, Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
	}}
	specB := &scenario.Spec{Name: "flap", Events: []scenario.Event{
		{At: 20 * units.Microsecond, Kind: scenario.LinkDown, Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
		{At: 50 * units.Microsecond, Kind: scenario.LinkUp, Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
	}}
	jobsA, err := ScenarioJobs(scale, specA, []sim.Scheme{sim.SchemeBFC})
	if err != nil {
		t.Fatal(err)
	}
	jobsB, err := ScenarioJobs(scale, specB, []sim.Scheme{sim.SchemeBFC})
	if err != nil {
		t.Fatal(err)
	}
	if jobsA[0].Name != jobsB[0].Name {
		t.Fatalf("same-named scenarios should share job names: %q vs %q", jobsA[0].Name, jobsB[0].Name)
	}
	if jobsA[0].Hash() == jobsB[0].Hash() {
		t.Fatal("scenarios with different content must not share artifact hashes")
	}
	if _, err := ScenarioJobs(scale, &scenario.Spec{}, nil); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// streamingHostFloor is the fabric size from which a job must declare
// streaming statistics: exact mode stores every FCT and occupancy sample, so
// on a large fabric a long-lived daemon serving the job would grow with flow
// count and horizon. Every two-tier Clos the paper evaluates (at most 128
// hosts) stays below it. The number lives here and on no run path.
const streamingHostFloor = 256

// TestLargeFabricJobsDeclareStreaming holds the figure table to the memory
// bound the service tier relies on: everything a suite can name — every
// figure's default grid and a scenario suite, at all three scales — either
// sets StreamingStats in its own option mutators or runs on a fabric smaller
// than streamingHostFloor. The statistics mode is part of what a job is, so
// it is declared where the job's name and hash are, not decided by whoever
// runs it. The mutators are evaluated without a topology (none of the
// table's reads one; one that did would panic here), and only a job that
// leaves streaming off has its fabric built to be counted.
func TestLargeFabricJobsDeclareStreaming(t *testing.T) {
	jobs, declared := 0, 0
	for _, name := range []string{"tiny", "reduced", "full"} {
		scale, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := ScenarioJobs(scale, ScenarioLinkFailRecover(scale), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range Figures() {
			if f.Jobs != nil {
				suite = append(suite, f.Jobs(scale, nil)...)
			}
		}
		for _, j := range suite {
			jobs++
			opts := sim.DefaultOptions(j.Scheme, nil)
			for _, mutate := range j.Options {
				if mutate != nil {
					mutate(&opts)
				}
			}
			if opts.StreamingStats {
				declared++
				continue
			}
			if hosts := len(j.Topology().Hosts()); hosts >= streamingHostFloor {
				t.Errorf("%s runs on %d hosts with exact statistics; fabrics of %d hosts and more must set StreamingStats in the figure table",
					j.Name, hosts, streamingHostFloor)
			}
		}
	}
	if declared == 0 {
		t.Fatalf("none of %d jobs declares streaming statistics: Fig 16's should", jobs)
	}
	t.Logf("%d jobs, %d declare streaming", jobs, declared)
}

// TestRecordsIgnoreObservers holds every kind of job to the contract
// sim.Options.Recorder states: observing a run never changes its record. The
// first job of every figure, a RunSpec job and a scenario job each run as
// compiled and again with a flight-recorder ring (small enough to wrap),
// the execution profiler and two shards attached, the way bfcsim -trace-dir
// -exec-stats -shards 2 or a traced bfcd suite attach them; the two records
// must marshal to the same bytes. A figure that read the ring, the profile or
// the shard count would store different numbers under one job hash.
func TestRecordsIgnoreObservers(t *testing.T) {
	scale := Tiny()
	var jobs []harness.Job
	for _, f := range Figures() {
		if f.Jobs == nil {
			continue
		}
		// fig06 renders fig05a's jobs: its first job is already a case.
		if j := f.Jobs(scale, nil)[0]; !slices.ContainsFunc(jobs, func(k harness.Job) bool { return k.Name == j.Name }) {
			jobs = append(jobs, j)
		}
	}
	run := RunSpec{Topology: "clos:2x2x4", Workload: "google", Load: 0.6, DurationUS: 150, DrainUS: 500, Seed: 1, Queues: 32, BufferMB: 12}
	runJobs, err := run.Jobs([]sim.Scheme{sim.SchemeBFC})
	if err != nil {
		t.Fatal(err)
	}
	scenJobs, err := ScenarioJobs(scale, ScenarioLinkFailRecover(scale), []sim.Scheme{sim.SchemeBFC})
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, runJobs[0], scenJobs[0])

	observed := make([]harness.Job, len(jobs))
	for i, j := range jobs {
		j.Options = append(slices.Clone(j.Options), func(o *sim.Options) {
			o.Recorder = telemetry.NewRing(16)
			o.ExecStats = true
			o.Shards = 2
		})
		observed[i] = j
	}
	plain, watched := harness.MustRun(jobs), harness.MustRun(observed)
	sharded := 0
	for i := range jobs {
		if watched[i].Result.Sharding.Used >= 2 {
			sharded++
		}
		a, err := json.Marshal(plain[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(watched[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the record changes when the run is observed (%d vs %d bytes)", jobs[i].Name, len(a), len(b))
		}
	}
	if sharded == 0 {
		t.Fatalf("none of %d observed runs used two shards", len(jobs))
	}
	t.Logf("%d jobs, %d ran on two shards when observed", len(jobs), sharded)
}
