package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/service"
	"bfc/internal/sim"
)

// flagJobs compiles a bfcsim command line's own flags to the jobs the command
// would run, in order.
func flagJobs(t *testing.T, args ...string) []harness.Job {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("bfcsim", flag.ContinueOnError)
	c.bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	suites, err := c.declare(fs)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []harness.Job
	for _, s := range suites {
		jobs = append(jobs, s.jobs...)
	}
	return jobs
}

// servedJobs compiles a bfcd suite document as the daemon does.
func servedJobs(t *testing.T, doc string) []harness.Job {
	t.Helper()
	suite, err := service.ParseSuiteSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := suite.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cs.Jobs
}

// TestFigureFlagsAndServedFigureAreOneDeclaration pins the identity contract
// for figures: -fig with or without -schemes and the equivalent {"figure": …}
// suite document compile to the same job names and content hashes, so a
// bfcsim -out directory and a bfcd store serve each other.
func TestFigureFlagsAndServedFigureAreOneDeclaration(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		doc   string
		n     int
	}{
		{[]string{"-fig", "5a", "-schemes", "BFC,DCQCN"}, `{"figure":"fig05a","schemes":["BFC","DCQCN"]}`, 2},
		{[]string{"-fig", "8"}, `{"figure":"fig08"}`, 0},
		{[]string{"-fig", "fig08", "-schemes", "BFC"}, `{"figure":"fig08"}`, 0}, // a fixed set ignores -schemes
		{[]string{"-fig", "6", "-full"}, `{"figure":"fig06","scale":"full"}`, len(sim.AllSchemes())},
	} {
		local, served := flagJobs(t, tc.flags...), servedJobs(t, tc.doc)
		if len(local) == 0 || tc.n > 0 && len(local) != tc.n || len(served) != len(local) {
			t.Fatalf("%v: %d local jobs, %d served", tc.flags, len(local), len(served))
		}
		for i := range local {
			if local[i].Name != served[i].Name || local[i].Hash() != served[i].Hash() {
				t.Errorf("%v job %d: local %s/%s, served %s/%s", tc.flags, i, local[i].Name, local[i].Hash(), served[i].Name, served[i].Hash())
			}
		}
	}
	if jobs := flagJobs(t, "-fig", "1,4"); len(jobs) != 0 {
		t.Errorf("static figures compiled %d jobs", len(jobs))
	}
}

// TestSharedFiguresSimulateOnce: Fig 6 renders Fig 5a's jobs, so asking for
// both simulates each job once and prints both figures; the same command over
// its own -out directory with -resume reruns nothing and prints the same.
func TestSharedFiguresSimulateOnce(t *testing.T) {
	args := []string{"-fig", "5a,6", "-schemes", "BFC", "-out", t.TempDir()}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "## Fig 5a") || !strings.Contains(stdout.String(), "## Fig 6") {
		t.Errorf("stdout lacks a figure:\n%s", stdout.String())
	}
	if n := strings.Count(stderr.String(), " ran "); n != 1 || strings.Count(stderr.String(), "\n") != 1 {
		t.Errorf("stderr %q: want exactly one progress line, reading ran", stderr.String())
	}
	var resumed, resumedErr bytes.Buffer
	if code := run(append(args, "-resume"), &resumed, &resumedErr); code != 0 {
		t.Fatalf("resume: exit code %d, stderr %q", code, resumedErr.String())
	}
	if resumed.String() != stdout.String() || strings.Contains(resumedErr.String(), " ran ") || !strings.Contains(resumedErr.String(), " cached ") {
		t.Errorf("resume printed\n%s\nstderr %q; want the same figures, all cached", resumed.String(), resumedErr.String())
	}
}

// TestRunResumesFromOut: a run takes -out and -resume like a figure does.
func TestRunResumesFromOut(t *testing.T) {
	args := []string{"-topology", "star:4", "-duration", "10us", "-schemes", "BFC,DCQCN", "-digest", "-out", t.TempDir()}
	var first, firstErr, again, againErr bytes.Buffer
	if code := run(args, &first, &firstErr); code != 0 || strings.Count(firstErr.String(), " ran ") != 2 {
		t.Fatalf("exit code %d, stderr %q; want two ran lines", code, firstErr.String())
	}
	if code := run(append(args, "-resume"), &again, &againErr); code != 0 {
		t.Fatalf("resume: exit code %d, stderr %q", code, againErr.String())
	}
	if again.String() != first.String() || strings.Count(againErr.String(), " cached ") != 2 || strings.Contains(againErr.String(), " ran ") {
		t.Errorf("resume printed %q, stderr %q; want the same digests, both cached", again.String(), againErr.String())
	}
}

// TestFlagsAndServedRunAreOneDeclaration pins the identity contract between
// bfcsim and bfcd: a command line and the equivalent {"run": …} suite
// document — its scenario re-indented and its keys reordered, so the bytes
// differ — compile to the same job names and content hashes, and the same
// job from either side simulates to the same result digest.
func TestFlagsAndServedRunAreOneDeclaration(t *testing.T) {
	linkflap := filepath.Join("..", "..", "examples", "scenarios", "linkflap.json")
	local := flagJobs(t, "-schemes", "BFC,DCQCN", "-scenario", linkflap, "-topology", "clos:2x2x4",
		"-duration", "150us", "-drain", "400us", "-seed", "3", "-queues", "16", "-buffer-mb", "6")

	blob, err := os.ReadFile(linkflap)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoded through a map: new indentation and, past what compacting
	// undoes, the keys in another order.
	var tree any
	if err := json.Unmarshal(blob, &tree); err != nil {
		t.Fatal(err)
	}
	scen, err := json.MarshalIndent(tree, "\t\t", "    ")
	if err != nil {
		t.Fatal(err)
	}
	var compact, fileCompact bytes.Buffer
	if json.Compact(&compact, scen) != nil || json.Compact(&fileCompact, blob) != nil || bytes.Equal(compact.Bytes(), fileCompact.Bytes()) {
		t.Fatal("the re-encoded scenario compacts to the file's bytes; the test would not show canonical hashing")
	}
	doc := `{"schemes": ["BFC", "DCQCN"], "run": {
		"topology": "clos:2x2x4", "workload": "google", "load": 0.6,
		"duration_us": 150, "drain_us": 400, "seed": 3, "queues": 16, "buffer_mb": 6,
		"scenario": ` + string(scen) + `}}`
	suite, err := service.ParseSuiteSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := suite.Compile()
	if err != nil {
		t.Fatal(err)
	}
	served := cs.Jobs
	if len(local) != 2 || len(served) != len(local) {
		t.Fatalf("%d local jobs, %d served", len(local), len(served))
	}
	for i := range local {
		if local[i].Name != served[i].Name || local[i].Hash() != served[i].Hash() {
			t.Errorf("job %d: local %s/%s, served %s/%s", i, local[i].Name, local[i].Hash(), served[i].Name, served[i].Hash())
		}
	}
	// The served example is the command line its CI step names.
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "service", "run-clos.json"))
	if err != nil {
		t.Fatal(err)
	}
	if suite, err = service.ParseSuiteSpec(example); err != nil {
		t.Fatal(err)
	}
	if cs, err = suite.Compile(); err != nil {
		t.Fatal(err)
	}
	want := flagJobs(t, "-topology", "clos:2x2x4", "-duration", "150us", "-schemes", "BFC,DCQCN")
	if len(cs.Jobs) != len(want) || cs.Jobs[0].Hash() != want[0].Hash() || cs.Jobs[1].Hash() != want[1].Hash() {
		t.Errorf("run-clos.json does not compile to bfcsim -topology clos:2x2x4 -duration 150us -schemes BFC,DCQCN")
	}

	digest := func(j harness.Job) string {
		recs, err := (&harness.Runner{}).Run([]harness.Job{j})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sim.ResultDigest(recs[0].Result)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if a, b := digest(local[0]), digest(served[0]); a != b {
		t.Errorf("%s: local digest %s, served %s", local[0].Name, a, b)
	}
}

// TestEveryRunFlagKeysTheHash changes each flag that fills a RunSpec field,
// one at a time, and requires every job hash to move: a cache keyed on a name
// that ignores any of them would serve one run's record for another.
func TestEveryRunFlagKeysTheHash(t *testing.T) {
	base := []string{"-schemes", "BFC,DCQCN", "-topology", "clos:2x2x4", "-duration", "150us", "-drain", "400us"}
	change := [][]string{
		{"-topology", "clos:2x2x8"},
		{"-workload", "websearch"},
		{"-load", "0.5"},
		{"-incast"},
		{"-duration", "200us"},
		{"-drain", "500us"},
		{"-seed", "4"},
		{"-queues", "16"},
		{"-buffer-mb", "6"},
		{"-scenario", filepath.Join("..", "..", "examples", "scenarios", "linkflap.json")},
	}
	if n := reflect.TypeOf(experiments.RunSpec{}).NumField(); n != len(change) {
		t.Fatalf("RunSpec has %d fields, the test changes %d", n, len(change))
	}
	seen := map[string]string{}
	for _, j := range flagJobs(t, base...) {
		seen[j.Hash()] = j.Name
	}
	for _, flags := range change {
		for _, j := range flagJobs(t, append(append([]string{}, base...), flags...)...) {
			if prev, dup := seen[j.Hash()]; dup {
				t.Errorf("%v: job %s has hash %s, as %s does", flags, j.Name, j.Hash(), prev)
			}
			seen[j.Hash()] = j.Name
		}
	}
}

// fatalCase is a command line that must end with one "bfcsim: <err>" line.
type fatalCase struct {
	args []string
	want string
	// printed: the error comes after the output (the heap profile is
	// written when the figures are done).
	printed bool
}

// requireFatal runs each case at every -log-level and requires exit code 1 and
// exactly one stderr line starting with the case's error.
func requireFatal(t *testing.T, cases []fatalCase) {
	t.Helper()
	for _, tc := range cases {
		for _, level := range []string{"debug", "info", "warn", "error"} {
			var stdout, stderr bytes.Buffer
			code := run(append(tc.args, "-log-level", level), &stdout, &stderr)
			if code != 1 {
				t.Errorf("%v -log-level %s: exit code %d, want 1", tc.args, level, code)
			}
			if !strings.HasPrefix(stderr.String(), tc.want) || strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("%v -log-level %s: stderr %q, want one line starting %q", tc.args, level, stderr.String(), tc.want)
			}
			if (stdout.Len() != 0) != tc.printed {
				t.Errorf("%v -log-level %s: stdout %q, want output %v", tc.args, level, stdout.String(), tc.printed)
			}
		}
	}
}

// TestFatalErrorsReachStderr pins that an error ending a run is written to
// stderr as "bfcsim: <err>" with exit code 1 at every -log-level: the logger
// the flags install must not be able to swallow or reword it.
func TestFatalErrorsReachStderr(t *testing.T) {
	requireFatal(t, []fatalCase{
		{[]string{"-schemes", "nope"}, `bfcsim: sim: unknown scheme "nope"`, false},
		{[]string{"-scenario", "/nonexistent.json"}, "bfcsim: open /nonexistent.json:", false},
		{[]string{"-topology", "star:8junk"}, `bfcsim: invalid topology "star:8junk"`, false},
		{[]string{"-workload", "nope"}, `bfcsim: workload: unknown distribution "nope"`, false},
		{[]string{"-topology", "star:4", "-duration", "10us", "-cpuprofile", "/nonexistent/cpu.prof"}, "bfcsim: open /nonexistent/cpu.prof:", false},
		{[]string{"-topology", "star:4", "-duration", "10us", "-resume"}, "bfcsim: -resume requires -out", false},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-log-level", "loud"}, &stdout, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "bfcsim: ") {
		t.Errorf("bad -log-level: exit code %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
		t.Errorf("unknown flag: exit code %d, stderr %q", code, stderr.String())
	}
}

// TestFigureFatalErrorsReachStderr: the -fig form reports its errors, and
// refuses flags that belong to a run, in the same "bfcsim: <err>" shape.
func TestFigureFatalErrorsReachStderr(t *testing.T) {
	requireFatal(t, []fatalCase{
		{[]string{"-fig", "99"}, `bfcsim: unknown figure "99"`, false},
		{[]string{"-fig", "1", "-schemes", "nope"}, `bfcsim: sim: unknown scheme "nope"`, false},
		{[]string{"-fig", "1", "-resume"}, "bfcsim: -resume requires -out", false},
		{[]string{"-fig", "5a", "-topology", "t1"}, "bfcsim: -topology declares a run and cannot be combined with -fig", false},
		{[]string{"-full"}, "bfcsim: -full applies only with -fig", false},
		{[]string{"-fig", "1", "-memprofile", "/nonexistent/mem.prof"}, "bfcsim: open /nonexistent/mem.prof:", true},
	})
}

// requireProfiledFailure runs args with -cpuprofile prof and requires exit
// code 1 with an error naming want, a flushed profile rather than the empty
// file pprof.StartCPUProfile created, and a profiler free for the next run.
func requireProfiledFailure(t *testing.T, prof string, args []string, want string) {
	t.Helper()
	os.Remove(prof)
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-cpuprofile", prof), &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), want) {
		t.Fatalf("%v: exit code %d, stderr %q; want an error naming %s", args, code, stderr.String(), want)
	}
	if blob, err := os.ReadFile(prof); err != nil || len(blob) == 0 {
		t.Fatalf("%v: profile after a failed run: %d bytes, err %v; want a non-empty file", args, len(blob), err)
	}
	stderr.Reset()
	if code := run([]string{"-fig", "1", "-cpuprofile", prof}, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: next profiled run: exit code %d, stderr %q", args, code, stderr.String())
	}
}

// TestFailedRunStillWritesCPUProfile: a run with a job failing inside it (a
// link flap on a fabric without those nodes) must leave a flushed -cpuprofile
// and must not leave the profiler running.
func TestFailedRunStillWritesCPUProfile(t *testing.T) {
	requireProfiledFailure(t, filepath.Join(t.TempDir(), "cpu.prof"),
		[]string{"-topology", "star:4", "-duration", "10us",
			"-scenario", filepath.Join("..", "..", "examples", "scenarios", "linkflap.json")}, `unknown node "tor0"`)
}

// TestFailedFigureStillWritesCPUProfile: -resume over a damaged artifact, so
// nothing simulates, fails a figure the same way and leaves the same profile.
func TestFailedFigureStillWritesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	fig, _ := experiments.FigureByKey("fig05a")
	job := fig.Jobs(experiments.Reduced(), []sim.Scheme{sim.SchemeBFC})[0]
	if err := os.WriteFile(filepath.Join(dir, job.Hash()+".jsonl"), []byte("{\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	requireProfiledFailure(t, filepath.Join(dir, "cpu.prof"),
		[]string{"-fig", "5a", "-schemes", "BFC", "-out", dir, "-resume"}, job.Hash())
}

// TestStaticFigureAndList drives the command's two paths that simulate
// nothing: a static figure prints its rows under the scale header, and -list
// prints one line per entry of the figure table.
func TestStaticFigureAndList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "1", "-log-level", "error"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("-fig 1: exit code %d, stderr %q", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "# scale: reduced (") || strings.Count(stdout.String(), "\n") < 4 {
		t.Errorf("-fig 1 printed %q", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit code %d", code)
	}
	if !strings.Contains(stdout.String(), "  5a ") || !strings.Contains(stdout.String(), "  17 ") {
		t.Errorf("-list printed %q", stdout.String())
	}
}

// TestDigestLinesAreObservationNeutral runs a scenario for two schemes the
// ways CI does — plain, at another -parallel and -shards, and traced and
// profiled — and requires the same "<sha256> <scheme>" lines from each, the
// exports to load as trace_event documents, and the block form to carry the
// same digests.
func TestDigestLinesAreObservationNeutral(t *testing.T) {
	base := []string{
		"-schemes", "BFC,DCQCN", "-scenario", "../../examples/scenarios/linkflap.json",
		"-topology", "clos:2x2x4", "-duration", "150us", "-seed", "3",
	}
	digests := func(extra ...string) (string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append(append([]string{}, base...), extra...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit code %d, stderr %q", extra, code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	want, errOut := digests("-digest", "-parallel", "1")
	if lines := strings.Split(strings.TrimSpace(want), "\n"); len(lines) != 2 ||
		!strings.HasSuffix(lines[0], " BFC") || !strings.HasSuffix(lines[1], " DCQCN") || len(lines[0]) != 64+len(" BFC") {
		t.Fatalf("digest output %q, want one \"<sha256> <scheme>\" line per scheme", want)
	}
	if !strings.Contains(errOut, "# BFC execution=serial") {
		t.Errorf("stderr %q does not name the execution mode", errOut)
	}
	dir := t.TempDir()
	got, errOut := digests("-digest", "-parallel", "8", "-shards", "2", "-exec-stats", "-trace-dir", dir)
	if got != want {
		t.Errorf("traced, profiled, sharded digests\n%swant\n%s", got, want)
	}
	if !strings.Contains(errOut, "/scheme=BFC exec: shards=2") || !strings.Contains(errOut, "shard 1: events=") {
		t.Errorf("stderr %q lacks the execution profile", errOut)
	}
	for _, name := range []string{"BFC.trace.json", "BFC.exec.json", "DCQCN.trace.json", "DCQCN.exec.json"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: not a trace_event document with events (%v)", name, err)
		}
	}
	if blob, err := os.ReadFile(filepath.Join(dir, "BFC.events.jsonl")); err != nil || len(blob) == 0 {
		t.Errorf("BFC.events.jsonl: %v, %d bytes", err, len(blob))
	}
	block, _ := digests()
	for _, line := range strings.Split(strings.TrimSpace(want), "\n") {
		sum, scheme, _ := strings.Cut(line, " ")
		if !strings.Contains(block, "scheme="+scheme+" ") || !strings.Contains(block, "digest="+sum+"\n") {
			t.Errorf("block output lacks %s's digest %s", scheme, sum)
		}
	}
	if !strings.Contains(block, "e0:link_down") {
		t.Errorf("block output lacks the per-phase scenario table:\n%s", block)
	}
}
