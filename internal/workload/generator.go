package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// arrivalSigma is the sigma of the lognormal flow inter-arrival times (§4.1).
const arrivalSigma = 2

// IncastConfig describes periodic synthetic N-to-1 incast bursts added on top
// of the background traffic.
type IncastConfig struct {
	// Enabled turns incast generation on.
	Enabled bool
	// FanIn is the number of simultaneous senders per incast event (the paper
	// uses 100-to-1 for the main results and sweeps 10–800 in Fig 8).
	FanIn int
	// AggregateSize is the total bytes per incast event, split evenly across
	// the senders (20 MB in the paper).
	AggregateSize units.Bytes
	// LoadFraction, when positive, schedules events so that incast traffic
	// consumes this fraction of the aggregate host capacity (5 % in Fig 5).
	LoadFraction float64
	// Interval, when positive, schedules events strictly periodically (500 us
	// in Fig 8) instead of by load fraction.
	Interval units.Time
}

// Config parameterizes a synthetic trace.
type Config struct {
	// Hosts are the candidate endpoints.
	Hosts []packet.NodeID
	// CDF is the flow-size distribution for background traffic.
	CDF *CDF
	// Load is the target average load on the aggregate host link capacity
	// attributable to background (non-incast) traffic, in [0, 1).
	Load float64
	// HostRate is the host uplink rate used to convert load to arrival rate.
	HostRate units.Rate
	// Duration is the trace length (flows arriving in [0, Duration)).
	Duration units.Time
	// Incast adds synthetic incast bursts.
	Incast IncastConfig
	// Seed makes the trace reproducible.
	Seed int64
	// BasePort is the first source port used; flows get distinct ports so
	// their 5-tuples (and hence VFIDs and ECMP choices) differ.
	BasePort uint16
	// InterDC, when non-nil, restricts src/dst sampling: a flow is inter-DC
	// with probability interDCFraction, drawing endpoints from the two host
	// sets; otherwise both endpoints come from the same set.
	InterDC *InterDCConfig
}

// InterDCConfig describes cross-data-center traffic mixing (Fig 9): the
// hosts of each data center.
type InterDCConfig struct {
	HostsDC1, HostsDC2 []packet.NodeID
}

// interDCFraction is the fraction of flows whose endpoints are in different
// DCs (20 % in §4.2).
const interDCFraction = 0.2

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Hosts) < 2 {
		return fmt.Errorf("workload: need at least 2 hosts")
	}
	if c.CDF == nil {
		return fmt.Errorf("workload: nil CDF")
	}
	if c.Load < 0 || c.Load >= 1.0001 {
		return fmt.Errorf("workload: load %v out of range [0,1]", c.Load)
	}
	if c.HostRate <= 0 {
		return fmt.Errorf("workload: host rate must be positive")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("workload: duration must be positive")
	}
	if c.Incast.Enabled {
		if c.Incast.FanIn < 1 || c.Incast.AggregateSize <= 0 {
			return fmt.Errorf("workload: invalid incast config %+v", c.Incast)
		}
		if c.Incast.LoadFraction <= 0 && c.Incast.Interval <= 0 {
			return fmt.Errorf("workload: incast needs a load fraction or an interval")
		}
	}
	return nil
}

// Trace is a generated workload: the flows sorted by start time plus summary
// information used by the statistics pipeline.
type Trace struct {
	Flows []*packet.Flow
	// BackgroundBytes is the offered load's non-incast share.
	BackgroundBytes units.Bytes
	// OfferedLoad is the realized background load fraction (for verification
	// against the configured target).
	OfferedLoad float64
}

// Generate synthesizes a trace.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	tr := &Trace{}
	var pages flowPages
	nextFlowID := packet.FlowID(1)
	basePort := cfg.BasePort
	if basePort == 0 {
		basePort = 10000
	}

	// Background traffic.
	meanSize := float64(cfg.CDF.Mean())
	if cfg.Load > 0 {
		// Aggregate arrival rate (flows/sec) so that background bytes match
		// the target fraction of aggregate host capacity.
		lambda := cfg.Load * cfg.aggregateCapacityBps() / 8 / meanSize
		// Lognormal inter-arrivals with E[X] = 1/lambda seconds network-wide:
		// mu = ln(mean) - sigma^2/2.
		mu := math.Log(1/lambda) - arrivalSigma*arrivalSigma/2

		now := 0.0
		horizon := cfg.Duration.Seconds()
		port := basePort
		for {
			now += math.Exp(rng.NormFloat64()*arrivalSigma + mu)
			if now >= horizon {
				break
			}
			size := cfg.CDF.Sample(rng)
			src, dst := pickEndpoints(rng, cfg)
			f := pages.add(packet.Flow{
				ID:        nextFlowID,
				Src:       src,
				Dst:       dst,
				SrcPort:   port,
				DstPort:   4791,
				Size:      size,
				StartTime: units.Time(now * float64(units.Second)),
			})
			nextFlowID++
			port++
			if port == 0 {
				port = basePort
			}
			tr.Flows = append(tr.Flows, f)
			tr.BackgroundBytes += size
		}
	}

	// Incast traffic.
	if cfg.Incast.Enabled {
		interval := cfg.Incast.Interval
		if interval <= 0 {
			// Events spaced so incast bytes are LoadFraction of capacity.
			eventsPerSec := cfg.Incast.LoadFraction * cfg.aggregateCapacityBps() / 8 / float64(cfg.Incast.AggregateSize)
			interval = units.Time(float64(units.Second) / eventsPerSec)
		}
		perSender := cfg.Incast.AggregateSize / units.Bytes(cfg.Incast.FanIn)
		if perSender < 1 {
			perSender = 1
		}
		port := uint16(40000)
		for at := interval; at < cfg.Duration; at += interval {
			victimIdx := rng.Intn(len(cfg.Hosts))
			victim := cfg.Hosts[victimIdx]
			senders := sampleSenders(rng, cfg.Hosts, victimIdx, cfg.Incast.FanIn)
			for _, s := range senders {
				f := pages.add(packet.Flow{
					ID:        nextFlowID,
					Src:       s,
					Dst:       victim,
					SrcPort:   port,
					DstPort:   4791,
					Size:      perSender,
					StartTime: at,
					IsIncast:  true,
				})
				nextFlowID++
				port++
				tr.Flows = append(tr.Flows, f)
			}
		}
	}

	sort.SliceStable(tr.Flows, func(i, j int) bool {
		return tr.Flows[i].StartTime < tr.Flows[j].StartTime
	})
	capacityBits := cfg.aggregateCapacityBps() * cfg.Duration.Seconds()
	tr.OfferedLoad = float64(tr.BackgroundBytes) * 8 / capacityBits
	return tr, nil
}

// aggregateCapacityBps returns the summed uplink capacity of the candidate
// hosts in bits per second — the denominator every load-fraction computation
// shares.
func (c *Config) aggregateCapacityBps() float64 {
	return float64(c.HostRate) * float64(len(c.Hosts))
}

// LongLivedFlows creates count never-ending flows to dst from distinct random
// senders (excluding dst). Used by the Fig 8 and Fig 10 experiments.
func LongLivedFlows(rng *rand.Rand, hosts []packet.NodeID, dst packet.NodeID, count int, firstID packet.FlowID) []*packet.Flow {
	var senders []packet.NodeID
	for _, h := range hosts {
		if h != dst {
			senders = append(senders, h)
		}
	}
	rng.Shuffle(len(senders), func(i, j int) { senders[i], senders[j] = senders[j], senders[i] })
	flows := make([]packet.Flow, count)
	for i := range flows {
		flows[i] = packet.Flow{
			ID:        firstID + packet.FlowID(i),
			Src:       senders[i%len(senders)],
			Dst:       dst,
			SrcPort:   uint16(20000 + i),
			DstPort:   4791,
			Size:      1 << 40, // effectively unbounded
			StartTime: 0,
			LongLived: true,
		}
	}
	return pointers(flows)
}

// flowPage is the number of flows one page of a flowPages holds (72 B each).
const flowPage = 256

// flowPages carves flows from pages, so a generated trace costs one heap
// object per page of flows instead of one per flow. The flows of a page live
// as long as any of them is referenced.
type flowPages []packet.Flow

// add returns a page-backed copy of f.
func (pg *flowPages) add(f packet.Flow) *packet.Flow {
	if len(*pg) == 0 {
		*pg = make([]packet.Flow, flowPage)
	}
	p := &(*pg)[0]
	*p = f
	*pg = (*pg)[1:]
	return p
}

// pointers returns a pointer to every flow of fs, which backs them all: a
// pattern whose flow count is known up front allocates its flows at once.
func pointers(fs []packet.Flow) []*packet.Flow {
	out := make([]*packet.Flow, len(fs))
	for i := range fs {
		out[i] = &fs[i]
	}
	return out
}

func pickEndpoints(rng *rand.Rand, cfg Config) (src, dst packet.NodeID) {
	if cfg.InterDC != nil {
		d := cfg.InterDC
		if rng.Float64() < interDCFraction {
			// Inter-DC flow: one endpoint in each DC, direction random.
			a := d.HostsDC1[rng.Intn(len(d.HostsDC1))]
			b := d.HostsDC2[rng.Intn(len(d.HostsDC2))]
			if rng.Intn(2) == 0 {
				return a, b
			}
			return b, a
		}
		// Intra-DC flow, uniformly within a random DC.
		set := d.HostsDC1
		if rng.Intn(2) == 1 {
			set = d.HostsDC2
		}
		return pickPair(rng, set)
	}
	return pickPair(rng, cfg.Hosts)
}

func pickPair(rng *rand.Rand, hosts []packet.NodeID) (src, dst packet.NodeID) {
	src = hosts[rng.Intn(len(hosts))]
	for {
		dst = hosts[rng.Intn(len(hosts))]
		if dst != src {
			return src, dst
		}
	}
}

func sampleSenders(rng *rand.Rand, hosts []packet.NodeID, excludeIdx, n int) []packet.NodeID {
	// Sample n senders (with repetition allowed when n exceeds the host
	// count, as in the Fig 8 fan-in sweep up to 800 on a 64-host topology).
	out := make([]packet.NodeID, 0, n)
	for len(out) < n {
		i := rng.Intn(len(hosts))
		if i == excludeIdx {
			continue
		}
		out = append(out, hosts[i])
	}
	return out
}

// IsInterDC reports whether a flow crosses the DC boundary described by cfg.
func (d *InterDCConfig) IsInterDC(f *packet.Flow) bool {
	in1 := containsNode(d.HostsDC1, f.Src)
	dstIn1 := containsNode(d.HostsDC1, f.Dst)
	return in1 != dstIn1
}

func containsNode(set []packet.NodeID, id packet.NodeID) bool {
	for _, h := range set {
		if h == id {
			return true
		}
	}
	return false
}
