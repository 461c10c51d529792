package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// childRun is what one workload run in a process of its own printed.
type childRun struct {
	result
	digest    string
	yardstick float64 // the run's median yardstick reading, seconds
}

// runChild runs one workload in a process of its own, so that its peak
// resident set is its own, and returns the result line, the digest and the
// yardstick reading it printed. The child's report is copied to echo.
func runChild(workload string, seed int64, seconds float64, trace int, echo io.Writer) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte{'\n'})
	var run childRun
	if err := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil {
		if runErr != nil {
			return childRun{}, fmt.Errorf("workload %s, seed %d: %w", workload, seed, runErr)
		}
		return childRun{}, fmt.Errorf("workload %s, seed %d: no result line: %w", workload, seed, err)
	}
	for _, line := range lines {
		if rest, ok := bytes.CutPrefix(line, []byte("digest ")); ok {
			run.digest = string(bytes.Fields(rest)[0])
		}
		if rest, ok := bytes.CutPrefix(line, []byte("yardstick ")); ok {
			// Information only: an unreadable reading shows as 0 in its row.
			run.yardstick, _ = strconv.ParseFloat(string(bytes.Fields(rest)[0]), 64)
		}
	}
	return run, nil
}

// aaRuns is the number of runs per workload and set of the A/A check, with
// seeds 1 to aaRuns: the driver's count.
const aaRuns = 10

// The digest and the allocation counts depend on the seed but repeat at a
// fixed one whatever the box does, so the A/A check also compares them seed by
// seed: the digests must be identical and the counts within pairedBound. The
// bounds BENCHMARK.json declares for the counts are wider only because the
// driver takes the spread across seeds.
var pairedMetrics = []string{"allocs_per_run", "alloc_mb_per_run"}

const pairedBound = 0.01

// yardstickRow is the row of the A/A table that shows how quiet the box was
// during each set.
const yardstickRow = "yardstick_s"

// runAA is the A/A check: the same build measured twice, the way the driver
// does it — aaRuns runs per workload, each with another seed, and per metric
// the median and the inter-quartile range of those runs. Two sets that
// disagree mean the benchmark (or the box) cannot support a claim at the
// declared bounds.
func runAA(cat *catalog, cfg config) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	digests := [2]map[string][]string{{}, {}}
	failed := 0
	for set := range sets {
		for _, w := range cat.Workloads {
			for seed := int64(1); seed <= aaRuns; seed++ {
				run, err := runChild(w.Name, seed, cfg.seconds, 0, io.Discard)
				if err != nil {
					return err
				}
				failed += run.Failed
				for name, v := range run.Metrics {
					k := key{w.Name, name}
					sets[set][k] = append(sets[set][k], v.Value)
				}
				digests[set][w.Name] = append(digests[set][w.Name], run.digest)
				sets[set][key{w.Name, yardstickRow}] = append(sets[set][key{w.Name, yardstickRow}], run.yardstick)
				fmt.Fprintf(os.Stderr, "set %d: %s seed %d done (run_wall_s %.4f)\n", set+1, w.Name, seed, run.Metrics["run_wall_s"].Value)
			}
		}
	}

	fmt.Printf("A/A over %d runs per workload and set, %g s each\n", aaRuns, cfg.seconds)
	fmt.Printf("%-20s %-17s %13s %8s %13s %8s %8s %6s  %s\n",
		"workload", "metric", "median 1", "iqr 1", "median 2", "iqr 2", "worse by", "bound", "verdict")
	counts := map[string]int{}
	for _, w := range cat.Workloads {
		for _, m := range cat.EndToEnd {
			k := key{w.Name, m.Name}
			a, b := summarize(sets[0][k]), summarize(sets[1][k])
			verdict := compare(a, b, m)
			counts[verdict]++
			fmt.Printf("%-20s %-17s %13.6g %7.2f%% %13.6g %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, a.Median, 100*a.spread(), b.Median, 100*b.spread(),
				100*worseBy(a.Median, b.Median, m.Better), 100*m.Bound, verdict)
		}
		k := key{w.Name, yardstickRow}
		a, b := summarize(sets[0][k]), summarize(sets[1][k])
		fmt.Printf("%-20s %-17s %13.6g %7.2f%% %13.6g %7.2f%% %7.2f%%         the box, not the code\n",
			w.Name, yardstickRow, a.Median, 100*a.spread(), b.Median, 100*b.spread(), 100*worseBy(a.Median, b.Median, "lower"))
	}

	fmt.Printf("seed by seed: identical digests, and the largest gap between the two sets at one seed, bound %.0f%%\n", 100*pairedBound)
	fmt.Printf("%-20s %8s %17s %17s  %s\n", "workload", "digests", pairedMetrics[0], pairedMetrics[1], "verdict")
	for _, w := range cat.Workloads {
		same := 0
		for i, d := range digests[0][w.Name] {
			if d != "" && d == digests[1][w.Name][i] {
				same++
			}
		}
		verdict := verdictAgree
		if same != aaRuns {
			verdict = verdictDisagree
		}
		var gaps [2]float64
		for j, name := range pairedMetrics {
			a, b := sets[0][key{w.Name, name}], sets[1][key{w.Name, name}]
			for i := range a {
				gaps[j] = math.Max(gaps[j], math.Max(worseBy(a[i], b[i], "lower"), worseBy(b[i], a[i], "lower")))
			}
			if gaps[j] > pairedBound {
				verdict = verdictDisagree
			}
		}
		counts[verdict]++
		fmt.Printf("%-20s %5d/%-2d %16.3f%% %16.3f%%  %s\n", w.Name, same, aaRuns, 100*gaps[0], 100*gaps[1], verdict)
	}

	fmt.Printf("%d agree, %d unresolved, %d disagree; %d operations failed\n",
		counts[verdictAgree], counts[verdictUnresolved], counts[verdictDisagree], failed)
	if counts[verdictDisagree] > 0 || failed > 0 {
		return fmt.Errorf("two sets of runs of the same build disagree")
	}
	return nil
}
