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

// flagJobs compiles a bfcsim command line's simulation flags to the jobs the
// command would run.
func flagJobs(t *testing.T, args ...string) []harness.Job {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("bfcsim", flag.ContinueOnError)
	c.bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.declare()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
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
		sum, err := sim.ResultDigest(harness.MustRun([]harness.Job{j})[0].Result)
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

// TestFatalErrorsReachStderr pins that an error ending the command is written
// to stderr as "bfcsim: <err>" with exit code 1 at every -log-level: the
// logger the flags install must not be able to swallow or reword it.
func TestFatalErrorsReachStderr(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-schemes", "nope"}, `bfcsim: sim: unknown scheme "nope"`},
		{[]string{"-scenario", "/nonexistent.json"}, "bfcsim: open /nonexistent.json:"},
		{[]string{"-topology", "star:8junk"}, `bfcsim: invalid topology "star:8junk"`},
		{[]string{"-workload", "nope"}, `bfcsim: workload: unknown distribution "nope"`},
		{[]string{"-topology", "star:4", "-duration", "10us", "-cpuprofile", "/nonexistent/cpu.prof"}, "bfcsim: open /nonexistent/cpu.prof:"},
	} {
		for _, level := range []string{"debug", "info", "warn", "error"} {
			var stdout, stderr bytes.Buffer
			code := run(append(tc.args, "-log-level", level), &stdout, &stderr)
			if code != 1 {
				t.Errorf("%v -log-level %s: exit code %d, want 1", tc.args, level, code)
			}
			if !strings.HasPrefix(stderr.String(), tc.want) || strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("%v -log-level %s: stderr %q, want one line starting %q", tc.args, level, stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("%v -log-level %s: stdout %q, want none", tc.args, level, stdout.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-log-level", "loud"}, &stdout, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "bfcsim: ") {
		t.Errorf("bad -log-level: exit code %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
		t.Errorf("unknown flag: exit code %d, stderr %q", code, stderr.String())
	}
}

// TestFailedRunStillWritesCPUProfile: a job that fails inside the run (a link
// flap on a fabric without those nodes) must leave a flushed -cpuprofile, not
// the empty file pprof.StartCPUProfile created, and must not leave the profiler
// running.
func TestFailedRunStillWritesCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-topology", "star:4", "-duration", "10us", "-cpuprofile", prof,
		"-scenario", filepath.Join("..", "..", "examples", "scenarios", "linkflap.json")}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), `unknown node "tor0"`) {
		t.Fatalf("exit code %d, stderr %q; want the job's error", code, stderr.String())
	}
	if blob, err := os.ReadFile(prof); err != nil || len(blob) == 0 {
		t.Fatalf("profile after a failed run: %d bytes, err %v; want a non-empty file", len(blob), err)
	}
	stderr.Reset()
	if code := run([]string{"-topology", "star:4", "-duration", "10us", "-cpuprofile", prof}, &stdout, &stderr); code != 0 {
		t.Fatalf("next profiled run: exit code %d, stderr %q", code, stderr.String())
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
