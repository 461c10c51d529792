package main

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"bfc/internal/sim"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func sameNames(t *testing.T, what string, declared, measured []string) {
	t.Helper()
	sort.Strings(declared)
	sort.Strings(measured)
	if strings.Join(declared, " ") != strings.Join(measured, " ") {
		t.Errorf("%s:\n declared in %s: %v\n measured by the program: %v", what, catalogFile, declared, measured)
	}
}

// TestCatalogMatchesProgram keeps BENCHMARK.json and the program in step:
// every declared name is well-formed, carries a unit and a direction (and,
// end to end, a bound), and is something the program implements or emits.
func TestCatalogMatchesProgram(t *testing.T) {
	cat, err := loadCatalog("../" + catalogFile)
	if err != nil {
		t.Fatal(err)
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", cat.RunSeconds)
	}
	if len(cat.Paths) != 1 || cat.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", cat.Paths)
	}
	if len(cat.Command) == 0 || len(cat.Command) > 32 {
		t.Errorf("command has %d words, want 1..32", len(cat.Command))
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not of the form %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range cat.Workloads {
		unique(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.Name, len(w.Why))
		}
		if _, _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
		if repSeconds[w.Name] <= 0 {
			t.Errorf("workload %s: no repetition length in repSeconds, so no repetition count", w.Name)
		}
	}

	checkMetric := func(m metricDecl) {
		t.Helper()
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not of the form %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q, want lower or higher", m.Name, m.Better)
		}
	}

	var declared []string
	var setup *metricDecl
	for i, m := range cat.EndToEnd {
		checkMetric(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &cat.EndToEnd[i]
		}
		declared = append(declared, m.Name)
	}
	switch {
	case setup == nil:
		t.Error("no end-to-end metric setup_s")
	case setup.Unit != "s" || setup.Better != "lower":
		t.Errorf("setup_s is declared %+v, want unit s and better lower", *setup)
	default:
		for _, m := range cat.EndToEnd {
			if m.Bound > setup.Bound {
				t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, m.Bound, setup.Bound)
			}
		}
	}
	one := sample{wall: 1, cpu: 1, mallocs: 1, allocBytes: 1, result: &outcome{events: 1}}
	values, _ := (&untraced{setup: 1, samples: []sample{one}, yardstick: []float64{1}}).endToEnd()
	var measured []string
	for name := range values {
		measured = append(measured, name)
	}
	sameNames(t, "end-to-end metrics", declared, measured)

	declared, measured = nil, nil
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range cat.PerLayer {
		checkMetric(m)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
		declared = append(declared, m.Name)
	}
	for name := range layerSources {
		measured = append(measured, name)
	}
	sameNames(t, "per-layer metrics", declared, measured)
}

func TestRelabelKeepsTheWorkAndMovesTheEndpoints(t *testing.T) {
	w := closIncast(sim.SchemeBFC, 1)
	topo, flows, err := w.inputs(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := closIncast(sim.SchemeBFC, 2)
	_, flows2, err := other.inputs(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != len(flows2) || len(flows) == 0 {
		t.Fatalf("seeds 1 and 2 generated %d and %d flows", len(flows), len(flows2))
	}
	firstHop := func(f, g int) bool {
		a, b := flows[f], flows2[g]
		return topo.Node(a.Src).Ports[0].Peer == topo.Node(b.Src).Ports[0].Peer &&
			topo.Node(a.Dst).Ports[0].Peer == topo.Node(b.Dst).Ports[0].Peer
	}
	moved := 0
	for i := range flows {
		a, b := flows[i], flows2[i]
		if a.Size != b.Size || a.StartTime != b.StartTime || a.IsIncast != b.IsIncast {
			t.Fatalf("flow %d differs in size, start or kind between seeds: %+v vs %+v", i, a, b)
		}
		if !firstHop(i, i) {
			t.Fatalf("flow %d changed its first-hop switches between seeds", i)
		}
		if a.Src == a.Dst {
			t.Fatalf("flow %d sends to itself after relabelling", i)
		}
		if a.Src != b.Src || a.Dst != b.Dst {
			moved++
		}
	}
	if moved < len(flows)/2 {
		t.Errorf("only %d of %d flows changed endpoints between seeds", moved, len(flows))
	}
}
