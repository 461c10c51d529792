// Command benchjson converts `go test -bench` output into a stable JSON
// document and compares two such documents for performance regressions. It is
// the tool behind the CI bench gate (.github/workflows/ci.yml) and the
// BENCH_*.json trajectory files at the repository root.
//
// Convert (reads bench output on stdin, writes JSON on stdout):
//
//	go test -bench=. -benchmem -count=1 -run='^$' ./internal/eventsim ./internal/netsim \
//	    | go run ./cmd/benchjson > BENCH_ci.json
//
// Compare (exits 1 if ns/op or allocs/op regressed more than the thresholds;
// flags must precede the positional file arguments, as with any Go flag
// program):
//
//	go run ./cmd/benchjson -compare -threshold 0.20 BENCH_baseline.json BENCH_ci.json
//
// allocs/op comparisons are machine-independent and use -threshold (any new
// allocation on an allocation-free baseline fails outright). ns/op
// comparisons depend on the host CPU; -ns-threshold (default: same as
// -threshold) can be set looser when the baseline was recorded on different
// hardware, as in CI against shared runners. An ns/op difference under one
// nanosecond is never a regression, whatever its ratio: sub-nanosecond rows
// (a disabled-feature check at 0.16 ns) double on timer noise alone.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result. The name is normalized by
// stripping the trailing -GOMAXPROCS suffix so results compare across
// machines with different core counts.
type Benchmark struct {
	Package     string             `json:"package"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the JSON document benchjson reads and writes.
type File struct {
	Schema     string      `json:"schema"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

const schema = "bfc-bench/v1"

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	compare := flag.Bool("compare", false, "compare two JSON files (baseline current) instead of converting")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional regression in allocs/op (and ns/op unless -ns-threshold is set)")
	nsThreshold := flag.Float64("ns-threshold", -1, "allowed fractional regression in ns/op (default: -threshold)")
	flag.Parse()
	if *nsThreshold < 0 {
		*nsThreshold = *threshold
	}

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchjson -compare [-threshold 0.20] [-ns-threshold 0.20] <baseline.json> <current.json>")
		}
		base, err := load(flag.Arg(0))
		if err != nil {
			fatalf("baseline: %v", err)
		}
		cur, err := load(flag.Arg(1))
		if err != nil {
			fatalf("current: %v", err)
		}
		if failures := diff(base, cur, *nsThreshold, *threshold); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d benchmarks within limits (ns/op +%.0f%%, allocs/op +%.0f%%)\n",
			len(base.Benchmarks), *nsThreshold*100, *threshold*100)
		return
	}

	out, err := parse(os.Stdin)
	if err != nil {
		fatalf("parse: %v", err)
	}
	if len(out.Benchmarks) == 0 {
		fatalf("no benchmark lines found on stdin")
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatalf("encode: %v", err)
	}
}

// parse reads `go test -bench` text output.
func parse(r io.Reader) (*File, error) {
	out := &File{Schema: schema}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			out.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // log line that merely starts with "Benchmark"
		}
		b := Benchmark{
			Package:    pkg,
			Name:       gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		out.Benchmarks = append(out.Benchmarks, b)
	}
	return out, sc.Err()
}

func load(path string) (*File, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &File{}
	if err := json.Unmarshal(blob, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// nsFloor is the absolute ns/op difference below which the relative ns/op
// test is skipped.
const nsFloor = 1.0

// diff returns a description of every gate violation: a benchmark in the
// baseline that is missing from current (so the gate cannot be silently
// deleted), an ns/op regression beyond nsThreshold and nsFloor, or an allocs/op
// regression beyond allocThreshold — where any allocation on a benchmark
// whose baseline is allocation-free fails regardless of threshold.
func diff(base, cur *File, nsThreshold, allocThreshold float64) []string {
	current := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		current[b.Package+"."+b.Name] = b
	}
	var failures []string
	for _, b := range base.Benchmarks {
		key := b.Package + "." + b.Name
		c, ok := current[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from current run (refresh BENCH_baseline.json if it was renamed)", key))
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+nsThreshold) && c.NsPerOp-b.NsPerOp >= nsFloor {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.2f -> %.2f (+%.1f%%, limit +%.0f%%)",
				key, b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), nsThreshold*100))
		}
		switch {
		case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
			failures = append(failures, fmt.Sprintf("%s: allocs/op 0 -> %.0f (hot path must stay allocation-free)",
				key, c.AllocsPerOp))
		case b.AllocsPerOp > 0 && c.AllocsPerOp > b.AllocsPerOp*(1+allocThreshold):
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f -> %.0f (+%.1f%%, limit +%.0f%%)",
				key, b.AllocsPerOp, c.AllocsPerOp, 100*(c.AllocsPerOp/b.AllocsPerOp-1), allocThreshold*100))
		}
	}
	return failures
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
