package bfc_test

import (
	"testing"

	"bfc"
)

// TestPublicAPIQuickstart runs the documented public workflow on a
// one-switch fabric (a 1x1 Clos, every flow intra-rack), a shape no Example
// covers: they run two-rack Clos and cross-DC fabrics.
func TestPublicAPIQuickstart(t *testing.T) {
	topo := bfc.NewClos(bfc.ClosConfig{
		NumToR: 1, NumSpine: 1, HostsPerToR: 8,
		LinkRate: 100 * bfc.Gbps, LinkDelay: bfc.Microsecond,
	})
	trace, err := bfc.GenerateWorkload(bfc.WorkloadConfig{
		Hosts:    topo.Hosts(),
		CDF:      bfc.GoogleWorkload(),
		Load:     0.5,
		HostRate: 100 * bfc.Gbps,
		Duration: 200 * bfc.Microsecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := bfc.DefaultOptions(bfc.SchemeBFC, topo)
	opts.Duration = 200 * bfc.Microsecond
	opts.Drain = bfc.Millisecond
	res, err := bfc.Run(opts, trace.Flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsCompleted == 0 {
		t.Fatal("no flows completed through the public API")
	}
	if res.FCT.OverallPercentile(99) < 1 {
		t.Fatal("nonsensical slowdown")
	}
}

func TestPublicAPISchemeComparison(t *testing.T) {
	topo := smallClos()
	if len(topo.Hosts()) != 16 {
		t.Fatal("2 racks of 8 should have 16 hosts")
	}
	if len(bfc.AllSchemes()) != 6 {
		t.Fatal("expected the six Fig 5 schemes")
	}
	for _, s := range bfc.AllSchemes() {
		if s.String() == "" {
			t.Fatal("scheme must have a name")
		}
	}
	// Ideal FCT of a 100 KB same-rack flow at 100 Gbps is ~10 us.
	hosts := topo.Hosts()
	f := &bfc.Flow{ID: 1, Src: hosts[0], Dst: hosts[1], Size: 100 << 10}
	ideal := bfc.IdealFCT(topo, 1000, f)
	if ideal < 8*bfc.Microsecond || ideal > 14*bfc.Microsecond {
		t.Fatalf("ideal FCT = %v, want ~10us", ideal)
	}
}
