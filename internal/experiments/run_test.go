package experiments

import (
	"testing"

	"bfc/internal/sim"
	"bfc/internal/units"
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
		build, err := ParseTopology(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := len(build().Hosts()); got != hosts {
			t.Errorf("%s: %d hosts, want %d", name, got, hosts)
		}
	}
	// The largest fabrics allowed: accepted, not built.
	for _, name := range []string{"star:4096", "fattree:4096", "clos:64x64x64"} {
		if _, err := ParseTopology(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{
		"star:1", "fattree:7", "clos:0x2x4", "clos:2x2", "mesh:4", "star:8junk",
		"", "t1:", "t2:4", "star:", "star", "star:2x2", "clos:2x2x4x1", "clos:2xx4", "fattree:-8", "star: 8",
		// More than MaxRunHosts hosts, or ToR-spine links.
		"star:4097", "fattree:4097", "fattree:1000000", "clos:1000x1x1000", "clos:65x1x64",
		"clos:4096x4096x1", "clos:1x1x9223372036854775807", "fattree:99999999999999999999",
	} {
		if _, err := ParseTopology(name); err == nil {
			t.Errorf("%q: accepted, want an error", name)
		}
	}
}

// A run's drain_us 0 keeps sim's default drain: sim.Options.Validate rejects
// a zero Drain, so the point compiler must leave the default in place, and a
// positive drain_us replaces it.
func TestRunDrainZeroKeepsDefault(t *testing.T) {
	for drainUS, want := range map[float64]units.Time{0: 2 * units.Millisecond, 400: 400 * units.Microsecond} {
		spec := RunSpec{Topology: "clos:2x2x4", Workload: "google", Load: 0.5,
			DurationUS: 150, DrainUS: drainUS, Seed: 1, Queues: 32, BufferMB: 12}
		jobs, err := spec.Jobs([]sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			opts := sim.DefaultOptions(j.Scheme, j.Topology())
			for _, mutate := range j.Options {
				mutate(&opts)
			}
			if opts.Drain != want {
				t.Errorf("drain_us %v: %s runs with drain %v, want %v", drainUS, j.Name, opts.Drain, want)
			}
			if err := opts.Validate(); err != nil {
				t.Errorf("drain_us %v: %s: %v", drainUS, j.Name, err)
			}
		}
	}
}
