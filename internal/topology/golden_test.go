package topology

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"bfc/internal/units"
)

var updateNodes = flag.Bool("update-nodes", false, "rewrite testdata/t2.nodes and print the node-table hashes of the other fabrics")

// dumpNodes writes one line per node: its ID, name, kind and tier, then every
// port as peer:peerPort:rate:delay:up. NodeByName, scenario specs and traces
// read the names, and routing, sharding and the devices read the ports, so a
// change to how a topology is built must leave this text byte-identical.
func dumpNodes(t *Topology) string {
	var b strings.Builder
	for _, n := range t.Nodes() {
		fmt.Fprintf(&b, "%d %q kind=%d tier=%s", n.ID, n.Name, n.Kind, n.Tier)
		for _, p := range n.Ports {
			fmt.Fprintf(&b, " %d:%d:%d:%d:%t", p.Peer, p.PeerPort, int64(p.Rate), int64(p.Delay), p.Up)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestNodeTablesUnchanged pins every node's name, kind, tier and ports: T2's
// in full (testdata/t2.nodes), and the 1024-host fat-tree's, the §4.2
// cross-DC fabric's and a star's by the SHA-256 of the same text. Between
// them they use every name format the built-in fabrics have. The table was
// taken from the builder that kept one *Node and one fmt.Sprintf name per
// node and grew each node's ports by append.
func TestNodeTablesUnchanged(t *testing.T) {
	t2 := dumpNodes(NewT2())
	hashed := []struct {
		name string
		topo *Topology
		want string
	}{
		{"fattree1024", NewFatTree(FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond)),
			"923a8e140091c853f70400b369a5ede4ce2794a66ed99322ef92523fb3538524"},
		{"crossdc", NewCrossDC(T2Config()).Topology,
			"4d0bd31f8af821641ac673b47b6999024b19f3e47e5d4f9af005f1727ca4b8c1"},
		{"star16", NewSingleSwitch(SingleSwitchConfig{NumHosts: 16, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond}),
			"17ba573640cbb21ec10bf994fc21c30f69155df07745cb536f3b9a6291d1e2b4"},
	}
	const t2Path = "testdata/t2.nodes"
	if *updateNodes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(t2Path, []byte(t2), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, h := range hashed {
			t.Logf("%s %x", h.name, sha256.Sum256([]byte(dumpNodes(h.topo))))
		}
		return
	}
	want, err := os.ReadFile(t2Path)
	if err != nil {
		t.Fatal(err)
	}
	if t2 != string(want) {
		got, exp := strings.Split(t2, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(got), len(exp)) {
			if got[i] != exp[i] {
				t.Fatalf("T2 node %d:\n got %s\nwant %s", i, got[i], exp[i])
			}
		}
		t.Fatalf("T2 has %d node lines, want %d", len(got), len(exp))
	}
	for _, h := range hashed {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(dumpNodes(h.topo)))); got != h.want {
			t.Errorf("%s node table hashes to %s, want %s", h.name, got, h.want)
		}
	}
}
