package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// catalogFile is the benchmark's declaration at the root of the checkout. The
// program reads it for the run length, the metric units and the regression
// bounds, so the numbers the driver gates on and the numbers -aa compares
// against are the same ones.
const catalogFile = "BENCHMARK.json"

// metricDecl is one declared metric. Bound is the share of the reference
// median by which the metric may worsen; per-layer metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type catalog struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func loadCatalog(path string) (*catalog, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration (run from the repository root): %w", err)
	}
	c := &catalog{}
	if err := json.Unmarshal(blob, c); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return c, nil
}

func (c *catalog) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
