package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseTopology(t *testing.T) {
	accept := map[string]int{ // -topology value -> hosts
		"t1":          128,
		"T2":          64,
		"star:8":      8,
		"fattree:16":  16,
		"clos:2x2x4":  8,
		"CLOS:3x1x2":  6,
		"fattree:100": 128, // rounded up to whole pods
	}
	for name, hosts := range accept {
		build, err := parseTopology(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := len(build().Hosts()); got != hosts {
			t.Errorf("%s: %d hosts, want %d", name, got, hosts)
		}
	}
	for _, name := range []string{
		"star:1", "fattree:7", "clos:0x2x4", "clos:2x2", "mesh:4", "star:8junk",
		"", "t1:", "t2:4", "star:", "star", "star:2x2", "clos:2x2x4x1", "clos:2xx4", "fattree:-8", "star: 8",
	} {
		if _, err := parseTopology(name); err == nil {
			t.Errorf("%q: accepted, want an error", name)
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
