package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"strings"

	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/scenario"
	"bfc/internal/sim"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// point declares one sweep point of a figure, a scenario suite or a run as
// plain data: the fabric, the traffic, the horizon and whatever the figure
// varies. A zero resource keeps sim's default. job and grid are the only code
// that turns a point into harness jobs, and they label every job with the
// digest of the point's JSON, so every field below keys the job's content
// hash (TestPointKeysTheHash holds each one to that).
type point struct {
	// Fabric is a ParseTopology name, or crossdc:<tor>x<spine>x<hosts per
	// tor> for Fig 9's two data centers of that shape joined through
	// gateways by a 100 Gbps link with 200 us one-way delay, 20% of the
	// background flows crossing it.
	Fabric string `json:"fabric"`
	// Gbps is the rate of every link (but Fig 9's gateway link).
	Gbps int `json:"gbps"`

	// Traffic selects the flows: "background" is Workload at Load plus, when
	// FanIn > 0, incast events of FanIn senders and IncastBytes taking 5% of
	// the capacity; "fanin" (Fig 8) is four long-lived flows to each of a
	// quarter of the hosts plus such an incast every quarter horizon, at most
	// 500 us apart; "longlived" (Fig 10) is Flows long-lived flows to one
	// receiver.
	Traffic      string      `json:"traffic"`
	Workload     string      `json:"workload"` // see workload.ByName
	Load         float64     `json:"load"`
	FanIn        int         `json:"fanin"`
	IncastBytes  units.Bytes `json:"incast_bytes"`
	Flows        int         `json:"flows"`
	WorkloadSeed int64       `json:"workload_seed"`
	// SimSeed is the simulation seed; nil derives it from the job name.
	SimSeed *int64 `json:"sim_seed"`

	Duration units.Time `json:"duration"`
	Drain    units.Time `json:"drain"` // 0 keeps sim's default

	// What the figures vary.
	Buffer              units.Bytes `json:"buffer"`
	Queues              int         `json:"queues"`
	VFIDs               int         `json:"vfids"`
	BloomBytes          int         `json:"bloom_bytes"`
	IdealFQQueues       int         `json:"idealfq_queues"`
	NoPFC               bool        `json:"no_pfc"`
	ResumeAll           bool        `json:"resume_all"`
	NoHighPriorityQueue bool        `json:"no_high_priority_queue"`
	Streaming           bool        `json:"streaming"`
	// Series samples the run's time series into Result.Telemetry (Fig 17).
	Series bool `json:"series"`

	// Scenario is the injected scenario in scenario.Spec.EncodeJSON form, and
	// scen the spec it encodes (see withScenario).
	Scenario json.RawMessage `json:"scenario,omitempty"`
	scen     *scenario.Spec
}

// defaultSeed is sim's default simulation seed. Figs 2, 3, 7, 10, 11 and 17
// predate the harness, which derives each job's seed from its name, and pin
// it to keep the rows they have always printed.
var defaultSeed int64 = 1

// withScenario returns p running spec.
func (p point) withScenario(spec *scenario.Spec) (point, error) {
	blob, err := spec.EncodeJSON()
	p.Scenario, p.scen = blob, spec
	return p, err
}

// digest is the first 16 hex digits of a sha256 over the point's JSON.
func (p *point) digest() string {
	blob, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("experiments: point %+v: %v", *p, err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// grid compiles the point to one job per scheme (the paper's six when
// schemes is nil), named <name>/scheme=<label> and labelled with meta plus
// scheme=<label>.
func (p point) grid(name string, meta map[string]string, schemes []sim.Scheme) []harness.Job {
	if schemes == nil {
		schemes = sim.AllSchemes()
	}
	meta["point"] = p.digest()
	jobs := make([]harness.Job, 0, len(schemes))
	for _, s := range schemes {
		m := maps.Clone(meta)
		m["scheme"] = s.String()
		jobs = append(jobs, p.job(name+"/scheme="+s.String(), s, m))
	}
	return jobs
}

// job compiles the point to the one job that runs scheme under name,
// labelled with meta, which it keeps, and the point's digest, unless meta
// holds it already (grid digests a point once for all its schemes).
func (p point) job(name string, scheme sim.Scheme, meta map[string]string) harness.Job {
	if meta["point"] == "" {
		meta["point"] = p.digest()
	}
	// inter is Fig 9's split of the hosts into two data centers, filled by
	// each execution's Topology, which the harness calls first.
	var inter *workload.InterDCConfig
	j := harness.Job{
		Name: name, Scheme: scheme, Meta: meta,
		Topology: func() *topology.Topology { return p.topology(&inter) },
		Flows:    func(topo *topology.Topology) []*packet.Flow { return p.flows(topo, inter) },
		Options:  []func(*sim.Options){p.apply},
	}
	if strings.HasPrefix(p.Fabric, "crossdc:") {
		j.Extract = func(topo *topology.Topology, flows []*packet.Flow) map[string]float64 {
			return interDCTails(topo, flows, inter)
		}
	}
	return j
}

// apply is the job's one option mutator. It is where "a zero resource keeps
// sim's default" lives: sim.Options.Validate rejects a zero, so a field the
// point leaves zero is not written.
func (p *point) apply(o *sim.Options) {
	o.Duration = p.Duration
	if p.Drain > 0 {
		o.Drain = p.Drain
	}
	if p.SimSeed != nil {
		o.Seed = *p.SimSeed
	}
	if p.Buffer > 0 {
		o.SwitchBuffer = p.Buffer
	}
	if p.Queues > 0 {
		o.NumQueues = p.Queues
	}
	if p.VFIDs > 0 {
		o.NumVFIDs = p.VFIDs
	}
	if p.BloomBytes > 0 {
		o.BloomBytes = p.BloomBytes
	}
	if p.IdealFQQueues > 0 {
		o.IdealFQQueues = p.IdealFQQueues
	}
	o.DisablePFC = p.NoPFC
	o.ResumeAll = p.ResumeAll
	o.HighPriorityQueue = !p.NoHighPriorityQueue
	o.StreamingStats = p.Streaming
	o.Scenario = p.scen
	o.SampleSeries = p.Series
}

// topology builds the point's fabric; a crossdc fabric sets *inter.
func (p *point) topology(inter **workload.InterDCConfig) *topology.Topology {
	rate := units.Rate(p.Gbps) * units.Gbps
	dims, crossDC := strings.CutPrefix(p.Fabric, "crossdc:")
	if !crossDC {
		build, err := parseTopology(p.Fabric, rate)
		if err != nil {
			panic(err)
		}
		return build()
	}
	dc := topology.ClosConfig{LinkRate: rate, LinkDelay: units.Microsecond}
	if _, err := fmt.Sscanf(dims, "%dx%dx%d", &dc.NumToR, &dc.NumSpine, &dc.HostsPerToR); err != nil {
		panic(fmt.Sprintf("experiments: fabric %q: %v", p.Fabric, err))
	}
	x := topology.NewCrossDC(dc)
	*inter = &workload.InterDCConfig{HostsDC1: x.HostsDC1, HostsDC2: x.HostsDC2}
	return x.Topology
}

// flows generates the point's traffic on topo.
func (p *point) flows(topo *topology.Topology, inter *workload.InterDCConfig) []*packet.Flow {
	hosts := topo.Hosts()
	if p.Traffic == "longlived" {
		return workload.LongLivedFlows(rand.New(rand.NewSource(p.WorkloadSeed)), hosts, hosts[0], p.Flows, 1)
	}
	cdf, err := workload.ByName(p.Workload)
	if err != nil {
		panic(err)
	}
	cfg := workload.Config{
		Hosts: hosts, CDF: cdf, Load: p.Load, HostRate: topo.HostRate(hosts[0]),
		Duration: p.Duration, Seed: p.WorkloadSeed, InterDC: inter,
	}
	if p.FanIn > 0 {
		cfg.Incast = workload.IncastConfig{Enabled: true, FanIn: p.FanIn, AggregateSize: p.IncastBytes, LoadFraction: 0.05}
	}
	var flows []*packet.Flow
	switch p.Traffic {
	case "background":
	case "fanin":
		cfg.Incast.LoadFraction, cfg.Incast.Interval = 0, min(p.Duration/4, 500*units.Microsecond)
		rng := rand.New(rand.NewSource(11)) // Fig 8's long-lived senders, as always drawn
		for _, dst := range hosts[:max(len(hosts)/4, 1)] {
			flows = append(flows, workload.LongLivedFlows(rng, hosts, dst, 4, packet.FlowID(len(flows)+1))...)
		}
	default:
		panic(fmt.Sprintf("experiments: unknown traffic %q", p.Traffic))
	}
	tr, err := workload.Generate(cfg)
	if err != nil {
		panic(err)
	}
	if flows == nil {
		return tr.Flows
	}
	for _, f := range tr.Flows {
		f.ID = packet.FlowID(len(flows) + 1)
		flows = append(flows, f)
	}
	return flows
}
