package main

import (
	"bytes"
	"strings"
	"testing"
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
