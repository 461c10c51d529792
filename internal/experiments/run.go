package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"bfc/internal/harness"
	"bfc/internal/scenario"
	"bfc/internal/sim"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// RunSpec declares one run outside the figure table: a fabric, the standard
// background workload (optionally with the paper's incast), a horizon, switch
// resources and an optional scenario document. cmd/bfcsim's flags fill one and
// a bfcd suite's "run" field carries one; Jobs is the only code that turns
// either into harness jobs, so a run names and hashes its jobs the same
// wherever it is compiled. Seed is the workload seed and the simulation seed
// of every scheme's run; DrainUS 0 selects sim's default drain.
type RunSpec struct {
	Topology   string          `json:"topology"` // see ParseTopology
	Workload   string          `json:"workload"` // google, fb_hadoop, websearch
	Load       float64         `json:"load"`     // background load, fraction of host capacity
	Incast     bool            `json:"incast,omitempty"`
	DurationUS float64         `json:"duration_us"`
	DrainUS    float64         `json:"drain_us"`
	Seed       int64           `json:"seed"`
	Queues     int             `json:"queues"` // physical queues per egress port
	BufferMB   int             `json:"buffer_mb"`
	Scenario   json.RawMessage `json:"scenario,omitempty"`
}

// Bounds a RunSpec from outside input must stay within. The largest in-tree
// fabric has 1024 hosts; 4096 is Fig 16's deepest point at full scale.
const (
	maxRunHosts    = 4096
	maxRunUS       = 1e5 // 100 ms of simulated time
	maxRunResource = 1024
	maxRunName     = 256
)

// Jobs validates the spec and compiles it to one job per scheme (the paper's
// six when schemes is nil), all seeing identical traffic; it builds no
// topology and runs nothing. Jobs are named "run/<digest>/scheme=X", the
// digest covering every field, the scenario as scenario.Spec.EncodeJSON
// renders it rather than the bytes it arrived in. The incast is Full scale's:
// 5% of capacity in 100-to-1, 20 MB events.
func (r *RunSpec) Jobs(schemes []sim.Scheme) ([]harness.Job, error) {
	if len(r.Topology) > maxRunName || len(r.Workload) > maxRunName {
		return nil, fmt.Errorf("experiments: run topology/workload name longer than %d bytes", maxRunName)
	}
	_, err := ParseTopology(r.Topology)
	if err != nil {
		return nil, err
	}
	if _, err := workload.ByName(r.Workload); err != nil {
		return nil, err
	}
	switch {
	case !(r.Load >= 0 && r.Load <= 1):
		return nil, fmt.Errorf("experiments: run load %v outside [0, 1]", r.Load)
	case !(r.DurationUS > 0 && r.DurationUS <= maxRunUS && r.DrainUS >= 0 && r.DrainUS <= maxRunUS):
		return nil, fmt.Errorf("experiments: run duration %vus or drain %vus outside (0, %g]", r.DurationUS, r.DrainUS, maxRunUS)
	case r.Queues < 1 || r.Queues > maxRunResource || r.BufferMB < 1 || r.BufferMB > maxRunResource:
		return nil, fmt.Errorf("experiments: run queues %d or buffer %d MB outside [1, %d]", r.Queues, r.BufferMB, maxRunResource)
	}
	canon := *r
	var spec *scenario.Spec
	if len(r.Scenario) > 0 {
		if spec, err = scenario.ParseSpec(r.Scenario); err != nil {
			return nil, err
		}
		if canon.Scenario, err = spec.EncodeJSON(); err != nil {
			return nil, err
		}
	}
	blob, err := json.Marshal(canon)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(blob)
	seed := r.Seed
	p := point{
		Fabric: r.Topology, Gbps: 100, Traffic: "background", Workload: r.Workload, Load: r.Load,
		WorkloadSeed: r.Seed, SimSeed: &seed, Duration: usTime(r.DurationUS), Drain: usTime(r.DrainUS),
		Buffer: units.Bytes(r.BufferMB) * units.MB, Queues: r.Queues,
	}
	if r.Incast {
		paper := Full()
		p.FanIn, p.IncastBytes = paper.IncastFanIn, paper.IncastAggregate
	}
	if spec != nil {
		if p, err = p.withScenario(spec); err != nil {
			return nil, err
		}
	}
	return p.grid("run/"+hex.EncodeToString(sum[:])[:16], map[string]string{}, schemes), nil
}

func usTime(us float64) units.Time { return units.Time(math.Round(us * float64(units.Microsecond))) }

// ParseTopology resolves a fabric name — t1, t2, star:<hosts>,
// fattree:<hosts> or clos:<tor>x<spine>x<hosts per tor>, all with the
// paper's 100 Gbps, 1 us links (§4.1) — to a builder of fresh topologies,
// building none. Sizes are whole decimal tokens ("star:8junk" is an error,
// not star:8); more than 4096 hosts, or ToR-spine links, is an error too.
func ParseTopology(name string) (func() *topology.Topology, error) {
	return parseTopology(name, 100*units.Gbps)
}

// parseTopology is ParseTopology with every link at rate.
func parseTopology(name string, rate units.Rate) (func() *topology.Topology, error) {
	const delay = units.Microsecond
	kind, size, sized := strings.Cut(strings.ToLower(name), ":")
	var dims []int
	if sized {
		for _, tok := range strings.Split(size, "x") {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("invalid topology %q: size %q is not a number", name, tok)
			}
			dims = append(dims, n)
		}
	}
	switch {
	case (kind == "t1" || kind == "t2") && dims == nil:
		cfg := topology.T1Config()
		if kind == "t2" {
			cfg = topology.T2Config()
		}
		cfg.LinkRate = rate
		return func() *topology.Topology { return topology.NewClos(cfg) }, nil
	case kind == "star" && len(dims) == 1 && dims[0] >= 2 && dims[0] <= maxRunHosts:
		cfg := topology.SingleSwitchConfig{NumHosts: dims[0], LinkRate: rate, LinkDelay: delay}
		return func() *topology.Topology { return topology.NewSingleSwitch(cfg) }, nil
	case kind == "fattree" && len(dims) == 1 && dims[0] >= 8 && dims[0] <= maxRunHosts:
		cfg := topology.FatTreeForHosts(dims[0], rate, delay)
		return func() *topology.Topology { return topology.NewFatTree(cfg) }, nil
	case kind == "clos" && len(dims) == 3:
		cfg := topology.ClosConfig{
			NumToR: dims[0], NumSpine: dims[1], HostsPerToR: dims[2],
			LinkRate: rate, LinkDelay: delay,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if max(dims[0], dims[1], dims[2]) > maxRunHosts || dims[0]*dims[2] > maxRunHosts || dims[0]*dims[1] > maxRunHosts {
			return nil, fmt.Errorf("invalid topology %q: more than %d hosts or ToR-spine links", name, maxRunHosts)
		}
		return func() *topology.Topology { return topology.NewClos(cfg) }, nil
	}
	return nil, fmt.Errorf("invalid topology %q (want t1, t2, star:<hosts >= 2>, fattree:<hosts >= 8> or clos:<tor>x<spine>x<hosts per tor>, at most %d hosts)", name, maxRunHosts)
}
