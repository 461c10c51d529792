package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bfc/internal/experiments"
	"bfc/internal/sim"
)

// TestFatalErrorsReachStderr pins that an error ending the command is written
// to stderr as "experiments: <err>" with exit code 1 at every -log-level.
func TestFatalErrorsReachStderr(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "99"}, `experiments: unknown figure "99"`},
		{[]string{"-fig", "1", "-schemes", "nope"}, `experiments: sim: unknown scheme "nope"`},
		{[]string{"-fig", "1", "-resume"}, "experiments: -resume requires -out"},
		{[]string{"-fig", "1", "-memprofile", "/nonexistent/mem.prof"}, "experiments: open /nonexistent/mem.prof:"},
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
		}
	}
}

// TestFailedRunStillWritesCPUProfile: a run that fails (here -resume over a
// damaged artifact, so nothing simulates) must leave a flushed -cpuprofile,
// not the empty file pprof.StartCPUProfile created, and must not leave the
// profiler running.
func TestFailedRunStillWritesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	fig, _ := experiments.FigureByKey("fig05a")
	job := fig.Jobs(experiments.Reduced(), []sim.Scheme{sim.SchemeBFC})[0]
	if err := os.WriteFile(filepath.Join(dir, job.Hash()+".jsonl"), []byte("{\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "5a", "-schemes", "BFC", "-out", dir, "-resume", "-cpuprofile", prof}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), job.Hash()) {
		t.Fatalf("exit code %d, stderr %q; want an error naming the artifact", code, stderr.String())
	}
	if blob, err := os.ReadFile(prof); err != nil || len(blob) == 0 {
		t.Fatalf("profile after a failed run: %d bytes, err %v; want a non-empty file", len(blob), err)
	}
	stderr.Reset()
	if code := run([]string{"-fig", "1", "-cpuprofile", prof}, &stdout, &stderr); code != 0 {
		t.Fatalf("next profiled run: exit code %d, stderr %q", code, stderr.String())
	}
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
