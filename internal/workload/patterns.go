package workload

import (
	"math/rand"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// Synthetic traffic patterns beyond the paper's background+incast mix. They
// are used directly by experiments and by the scenario engine's mid-run
// injection events (internal/scenario). All of them are pure functions of
// their inputs: the same rng seed yields the same flows, byte for byte.

// Permutation returns one flow per host: host i sends size bytes to p(i),
// where p is a uniformly random cyclic permutation (no host sends to itself).
// Every host is the source of exactly one flow and the destination of exactly
// one flow — the classic permutation-traffic stress where ECMP collisions,
// not endpoint contention, decide performance.
func Permutation(rng *rand.Rand, hosts []packet.NodeID, size units.Bytes, start units.Time, firstID packet.FlowID, basePort uint16) []*packet.Flow {
	if len(hosts) < 2 {
		panic("workload: permutation needs at least 2 hosts")
	}
	if size <= 0 {
		panic("workload: permutation flow size must be positive")
	}
	// Sattolo's algorithm yields a uniformly random cyclic permutation, which
	// is by construction fixed-point free.
	perm := make([]int, len(hosts))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	flows := make([]packet.Flow, len(hosts))
	port := basePort
	for i, h := range hosts {
		flows[i] = packet.Flow{
			ID:        firstID + packet.FlowID(i),
			Src:       h,
			Dst:       hosts[perm[i]],
			SrcPort:   port,
			DstPort:   4791,
			Size:      size,
			StartTime: start,
		}
		port++
	}
	return pointers(flows)
}

// AllToAll returns the flows of a full shuffle phase: every host sends size
// bytes to every other host, all starting at start. The flow order (and hence
// ID and port assignment) is deterministic: sources in host order, then
// destinations in host order.
func AllToAll(hosts []packet.NodeID, size units.Bytes, start units.Time, firstID packet.FlowID, basePort uint16) []*packet.Flow {
	if len(hosts) < 2 {
		panic("workload: all-to-all needs at least 2 hosts")
	}
	if size <= 0 {
		panic("workload: all-to-all flow size must be positive")
	}
	flows := make([]packet.Flow, 0, len(hosts)*(len(hosts)-1))
	id := firstID
	port := basePort
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			flows = append(flows, packet.Flow{
				ID:        id,
				Src:       src,
				Dst:       dst,
				SrcPort:   port,
				DstPort:   4791,
				Size:      size,
				StartTime: start,
			})
			id++
			port++
			if port == 0 {
				port = basePort
			}
		}
	}
	return pointers(flows)
}

// IncastBurst returns one synchronized N-to-1 incast event: fanIn senders
// (sampled with repetition when fanIn exceeds the host count, never the
// victim) each send aggregate/fanIn bytes to the victim, all starting at
// start. victimIdx indexes hosts.
func IncastBurst(rng *rand.Rand, hosts []packet.NodeID, victimIdx, fanIn int, aggregate units.Bytes, start units.Time, firstID packet.FlowID, basePort uint16) []*packet.Flow {
	if victimIdx < 0 || victimIdx >= len(hosts) {
		panic("workload: incast victim index out of range")
	}
	if fanIn < 1 || aggregate <= 0 {
		panic("workload: invalid incast burst parameters")
	}
	perSender := aggregate / units.Bytes(fanIn)
	if perSender < 1 {
		perSender = 1
	}
	victim := hosts[victimIdx]
	senders := sampleSenders(rng, hosts, victimIdx, fanIn)
	flows := make([]packet.Flow, len(senders))
	port := basePort
	for i, s := range senders {
		flows[i] = packet.Flow{
			ID:        firstID + packet.FlowID(i),
			Src:       s,
			Dst:       victim,
			SrcPort:   port,
			DstPort:   4791,
			Size:      perSender,
			StartTime: start,
			IsIncast:  true,
		}
		port++
	}
	return pointers(flows)
}
