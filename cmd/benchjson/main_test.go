package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: bfc/internal/eventsim
cpu: AMD EPYC 7B13
BenchmarkScheduleFire-8        	68648761	        16.76 ns/op	       0 B/op	       0 allocs/op
BenchmarkScheduleCancel-8      	75096136	        15.67 ns/op	       0 B/op	       0 allocs/op
ok  	bfc/internal/eventsim	3.850s
pkg: bfc/internal/netsim
BenchmarkLinkPacketPath-8      	24071812	        55.30 ns/op	       2 custom/op	       0 B/op	       0 allocs/op
ok  	bfc/internal/netsim	1.2s
`

func parseSample(t *testing.T) *File {
	t.Helper()
	f, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParse(t *testing.T) {
	f := parseSample(t)
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(f.Benchmarks))
	}
	b := f.Benchmarks[0]
	if b.Name != "BenchmarkScheduleFire" || b.Package != "bfc/internal/eventsim" {
		t.Fatalf("bad identity: %+v", b)
	}
	if b.NsPerOp != 16.76 || b.AllocsPerOp != 0 || b.Iterations != 68648761 {
		t.Fatalf("bad values: %+v", b)
	}
	link := f.Benchmarks[2]
	if link.Package != "bfc/internal/netsim" || link.Metrics["custom/op"] != 2 {
		t.Fatalf("bad netsim benchmark: %+v", link)
	}
	if f.GOOS != "linux" || f.CPU != "AMD EPYC 7B13" {
		t.Fatalf("bad env: %+v", f)
	}
}

func TestDiff(t *testing.T) {
	base := parseSample(t)

	// Identical results: no failures.
	if fails := diff(base, parseSample(t), 0.20, 0.20); len(fails) != 0 {
		t.Fatalf("identical runs flagged: %v", fails)
	}

	// ns/op regression beyond the threshold.
	cur := parseSample(t)
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 1.5
	if fails := diff(base, cur, 0.20, 0.20); len(fails) != 1 || !strings.Contains(fails[0], "ns/op") {
		t.Fatalf("ns/op regression not caught: %v", fails)
	}

	// Within threshold: allowed.
	cur = parseSample(t)
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 1.1
	if fails := diff(base, cur, 0.20, 0.20); len(fails) != 0 {
		t.Fatalf("within-threshold change flagged: %v", fails)
	}

	// Under a nanosecond of difference no ratio is a regression (the row that
	// misfired on its own recording box: BenchmarkExecStatsOverhead); the same
	// ratio on a row tens of nanoseconds wide still is.
	for _, c := range []struct {
		base, cur float64
		fails     int
	}{{0.16, 0.37, 0}, {58, 80, 1}} {
		b := parseSample(t)
		b.Benchmarks[0].NsPerOp = c.base
		cur = parseSample(t)
		cur.Benchmarks[0].NsPerOp = c.cur
		if fails := diff(b, cur, 0.20, 0.20); len(fails) != c.fails {
			t.Fatalf("ns/op %v -> %v: %d failures, want %d: %v", c.base, c.cur, len(fails), c.fails, fails)
		}
	}

	// Any alloc on an allocation-free baseline fails regardless of threshold.
	cur = parseSample(t)
	cur.Benchmarks[1].AllocsPerOp = 1
	if fails := diff(base, cur, 0.20, 0.20); len(fails) != 1 || !strings.Contains(fails[0], "allocation-free") {
		t.Fatalf("new allocation not caught: %v", fails)
	}

	// A benchmark disappearing from the current run fails the gate.
	cur = parseSample(t)
	cur.Benchmarks = cur.Benchmarks[1:]
	if fails := diff(base, cur, 0.20, 0.20); len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Fatalf("missing benchmark not caught: %v", fails)
	}

	// A looser ns threshold tolerates cross-machine ns/op variance while the
	// alloc gate stays strict.
	cur = parseSample(t)
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 1.5
	cur.Benchmarks[1].AllocsPerOp = 1
	fails := diff(base, cur, 0.75, 0.20)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocation-free") {
		t.Fatalf("split thresholds wrong: %v", fails)
	}
}
