package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"bfc/internal/harness"
	"bfc/internal/sim"
	"bfc/internal/units"
)

// runJobs runs jobs on a default runner (all cores, no persistence).
func runJobs(t testing.TB, jobs []harness.Job) []*harness.Record {
	t.Helper()
	recs, err := (&harness.Runner{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestScales(t *testing.T) {
	for _, s := range []Scale{Tiny(), Reduced(), Full()} {
		if s.NumToR <= 0 || s.HostsPerToR <= 0 || s.Duration <= 0 {
			t.Fatalf("scale %q malformed: %+v", s.Name, s)
		}
		build, err := ParseTopology(s.t1())
		if err != nil {
			t.Fatal(err)
		}
		if len(build().Hosts()) != s.NumToR*s.HostsPerToR {
			t.Fatalf("scale %q clos host count wrong", s.Name)
		}
	}
}

func TestSweepTrimming(t *testing.T) {
	s := Tiny()
	s.SweepPoints = 3
	got := s.sweep([]int{1, 2, 3, 4, 5, 6})
	if len(got) != 3 || got[0] != 1 || got[len(got)-1] != 6 {
		t.Fatalf("sweep = %v, want 3 points keeping extremes", got)
	}
	s.SweepPoints = 0
	if got := s.sweep([]int{1, 2}); len(got) != 2 {
		t.Fatal("zero SweepPoints should keep everything")
	}
}

func TestFig01HardwareTrend(t *testing.T) {
	rows := Fig01HardwareTrend()
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// The paper's point: buffer/capacity falls across generations.
	if rows[0].BufferOverCapU <= rows[len(rows)-1].BufferOverCapU {
		t.Fatal("buffer-per-capacity should decrease across switch generations")
	}
}

func TestFig04WorkloadCDF(t *testing.T) {
	rows := Fig04WorkloadCDF()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byName := map[string]WorkloadCDFRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// The Google workload has the most bytes within one BDP; WebSearch the
	// fewest (Fig 4 ordering).
	if byName["Google"].BytesWithin1BDP <= byName["WebSearch"].BytesWithin1BDP {
		t.Fatal("Google should have more bytes within 1 BDP than WebSearch")
	}
	if byName["Google"].FlowsUnder1KB < 0.8 {
		t.Fatal("Google should have >80% of flows under 1KB")
	}
}

func TestFig05TinyRun(t *testing.T) {
	// Exercise the headline experiment end to end at tiny scale with two
	// schemes; BFC should not be worse than DCQCN at the tail.
	res := Fig05FromRecords(runJobs(t, Fig05Jobs(Tiny(), Fig05aGoogleIncast, []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})))
	if len(res.Series) != 2 {
		t.Fatalf("got %d series", len(res.Series))
	}
	var bfc, dcqcn SlowdownSeries
	for _, s := range res.Series {
		switch s.Label {
		case "BFC":
			bfc = s
		case "DCQCN":
			dcqcn = s
		}
	}
	if res.Raw["BFC"].FlowsCompleted == 0 || res.Raw["DCQCN"].FlowsCompleted == 0 {
		t.Fatal("schemes completed no flows")
	}
	if bfc.Overall > dcqcn.Overall*1.5 {
		t.Fatalf("BFC tail slowdown %.2f should not be far above DCQCN %.2f", bfc.Overall, dcqcn.Overall)
	}
	table := FormatSeries("fig5a", res.Series)
	if !strings.Contains(table, "BFC") || !strings.Contains(table, "DCQCN") {
		t.Fatal("formatted table missing schemes")
	}
	if res.Raw["BFC"].BufferOccupancy.Percentile(99) < 0 {
		t.Fatal("missing buffer stats")
	}
}

// TestFig05ParallelMatchesSerial is the harness determinism gate at figure
// level: the Fig 5a panel produced by 8 workers must be byte-identical to a
// serial run — both the persisted records and the rendered rows.
func TestFig05ParallelMatchesSerial(t *testing.T) {
	schemes := []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN}
	run := func(workers int) ([]byte, string) {
		recs, err := (&harness.Runner{Parallel: workers}).Run(Fig05Jobs(Tiny(), Fig05aGoogleIncast, schemes))
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		b, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		res := Fig05FromRecords(recs)
		return b, FormatSeries("fig5a", res.Series)
	}
	serialRecs, serialRows := run(1)
	parallelRecs, parallelRows := run(8)
	if string(serialRecs) != string(parallelRecs) {
		t.Fatal("parallel records differ from serial records")
	}
	if serialRows != parallelRows {
		t.Fatalf("parallel rows differ from serial rows:\n%s\nvs\n%s", parallelRows, serialRows)
	}
}

// TestFig02BufferGrowsWithLinkSpeed is a scoreboard row: without PFC, DCQCN
// holds less of the buffer under control as links get faster (Fig 2). It runs
// at reduced scale because the ordering does not hold at tiny — 8 hosts for
// 150 us offer too little traffic for the 100 Gbps fabric to build a queue —
// and the sizing run read p99 = 100 KB at 10 Gbps against 1.26 MB at 100 Gbps.
func TestFig02BufferGrowsWithLinkSpeed(t *testing.T) {
	rows := Fig02FromRecords(runJobs(t, Fig02Jobs(Reduced())))
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	slow, fast := rows[0], rows[len(rows)-1]
	if slow.LinkRate != 10*units.Gbps || fast.LinkRate != 100*units.Gbps {
		t.Fatalf("rows not ordered by link rate: %v ... %v", slow.LinkRate, fast.LinkRate)
	}
	if fast.P99 < 4*slow.P99 {
		t.Fatalf("p99 buffer at %v = %v, want at least 4x the %v at %v", fast.LinkRate, fast.P99, slow.P99, slow.LinkRate)
	}
}

// TestFig07ReducedOrderings is a scoreboard row for Fig 7: static queue
// assignment collides where dynamic assignment does not, and SFQ over 32
// queues has the worse tail even with infinite buffering. It runs at reduced
// scale because tiny is too small for the second ordering once flows hash the
// way a switch spreads them: at tiny SFQ+InfBuffer read 1.75 against BFC's
// 1.67, inside the 1.2x bound. The sizing run at reduced read collision
// fractions 0.0035 vs 0 and overall p99 slowdowns 10.64 vs 2.57.
func TestFig07ReducedOrderings(t *testing.T) {
	res := Fig07FromRecords(runJobs(t, Fig07Jobs(Reduced())))
	if len(res.Series) != 3 || len(res.CollisionFraction) != 2 {
		t.Fatalf("got %d series and %d collision fractions, want 3 and 2", len(res.Series), len(res.CollisionFraction))
	}
	if static, dynamic := res.CollisionFraction["BFC-VFID"], res.CollisionFraction["BFC"]; static <= dynamic {
		t.Fatalf("collision fraction BFC-VFID %.5f should exceed BFC %.5f", static, dynamic)
	}
	p99 := map[string]float64{}
	for _, s := range res.Series {
		p99[s.Label] = s.Overall
	}
	if p99["SFQ+InfBuffer"] < 1.2*p99["BFC"] {
		t.Fatalf("SFQ+InfBuffer p99 slowdown %.2f should be well above BFC %.2f", p99["SFQ+InfBuffer"], p99["BFC"])
	}
}

// TestMigratedFigureResumes checks the reach the harness gives the figures
// that used to simulate directly: Fig 3 persists one artifact per job, a
// resumed run executes nothing, and the figure prints the same from the
// stored records as from the live ones.
func TestMigratedFigureResumes(t *testing.T) {
	store, err := harness.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fig, _ := FigureByKey("fig03")
	jobs := fig.Jobs(Tiny(), nil)
	// render runs the jobs and reports how many were taken from the store.
	render := func(resume bool) (string, int) {
		cached := 0
		r := &harness.Runner{Store: store, Resume: resume, Progress: func(p harness.Progress) {
			if p.Cached {
				cached++
			}
		}}
		recs, err := r.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fig.Render(&sb, recs)
		return sb.String(), cached
	}
	live, cached := render(false)
	if cached != 0 {
		t.Fatalf("first run took %d of %d jobs from an empty store", cached, len(jobs))
	}
	stored, cached := render(true)
	if cached != len(jobs) {
		t.Fatalf("resume took %d of %d jobs from the store", cached, len(jobs))
	}
	if live != stored {
		t.Fatalf("figure rendered from stored records differs:\n%s\nvs\n%s", stored, live)
	}
}

// TestFig09ExtractSurvivesResume checks that the figure-specific Extra
// metrics (Fig 9's intra/inter split needs the in-worker flow list) are
// persisted and that re-assembling the figure from stored artifacts executes
// nothing.
func TestFig09ExtractSurvivesResume(t *testing.T) {
	store, err := harness.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := &harness.Runner{Store: store}
	recs, err := first.Run(Fig09Jobs(Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	rows := Fig09FromRecords(recs)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.IntraP99 < 1 {
			t.Fatalf("row %+v has no intra-DC completions", r)
		}
	}
	ran := 0
	resumed := &harness.Runner{Store: store, Resume: true, Progress: func(p harness.Progress) {
		if !p.Cached {
			ran++
		}
	}}
	recs2, err := resumed.Run(Fig09Jobs(Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 || len(recs2) != 2 {
		t.Fatalf("resume executed %d of %d jobs, want 0 of 2", ran, len(recs2))
	}
	rows2 := Fig09FromRecords(recs2)
	for i := range rows {
		if rows[i] != rows2[i] {
			t.Fatalf("resumed row %d = %+v, want %+v", i, rows2[i], rows[i])
		}
	}
}

func TestFig10TinyRun(t *testing.T) {
	scale := Tiny()
	scale.Duration = 300 * units.Microsecond
	rows := Fig10FromRecords(runJobs(t, Fig10Jobs(scale)))
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// For the largest flow count, resume-all (BFC-BufferOpt) holds at least
	// as much per-queue buffering as throttled BFC at paper scale. The tiny
	// fabric (256 flows over 7 senders) cannot separate the schemes cleanly —
	// the two sit within tens of percent of each other and their ordering
	// flips with the duration — so this run only guards the ballpark: a gross
	// inversion (resume-all buffering collapsing versus throttled) fails.
	byKey := map[string]units.Bytes{}
	maxFlows := 0
	for _, r := range rows {
		if r.ConcurrentFlows > maxFlows {
			maxFlows = r.ConcurrentFlows
		}
	}
	for _, r := range rows {
		if r.ConcurrentFlows == maxFlows {
			byKey[r.Scheme] = r.QueueMax
		}
	}
	if byKey["BFC"] == 0 || byKey["BFC-BufferOpt"] == 0 {
		t.Fatalf("missing rows: %+v", byKey)
	}
	if byKey["BFC-BufferOpt"]*10 < byKey["BFC"]*6 {
		t.Fatalf("resume-all queue %v collapsed below 60%% of throttled %v", byKey["BFC-BufferOpt"], byKey["BFC"])
	}
}

func TestFig12TinySweep(t *testing.T) {
	fig12, _ := FigureByKey("fig12")
	rows := SensitivityFromRecords(runJobs(t, fig12.Jobs(Tiny(), nil)))
	if len(rows) < 2 {
		t.Fatalf("sweep produced %d points", len(rows))
	}
	// Fewer queues must not reduce collisions.
	first, last := rows[0], rows[len(rows)-1]
	if first.Parameter >= last.Parameter {
		t.Fatal("sweep not ordered")
	}
	if first.CollisionFraction < last.CollisionFraction-1e-9 {
		t.Fatalf("collisions with %d queues (%.4f) should be >= with %d queues (%.4f)",
			first.Parameter, first.CollisionFraction, last.Parameter, last.CollisionFraction)
	}
}

// TestFig13ReducedSweep: Fig 13a's column is VFID aliasing, not queue
// collisions. It must be there at the smallest table and fall strictly as the
// table grows, until it reaches 0, where it stays. It runs at reduced scale:
// at tiny no table size aliases a flow. The sizing run read 1.4e-4 of packets
// aliased with 1 024 VFIDs and 0 with 16 384 and 65 536.
func TestFig13ReducedSweep(t *testing.T) {
	fig13, _ := FigureByKey("fig13")
	rows := SensitivityFromRecords(runJobs(t, fig13.Jobs(Reduced(), nil)))
	if len(rows) < 2 {
		t.Fatalf("sweep produced %d points", len(rows))
	}
	if rows[0].VFIDCollisionFraction == 0 {
		t.Fatalf("no VFID collisions with %d VFIDs: the sweep shows nothing", rows[0].Parameter)
	}
	for i := 1; i < len(rows); i++ {
		prev, r := rows[i-1], rows[i]
		if prev.Parameter >= r.Parameter {
			t.Fatal("sweep not ordered")
		}
		if r.VFIDCollisionFraction > 0 && r.VFIDCollisionFraction >= prev.VFIDCollisionFraction {
			t.Fatalf("VFID collisions with %d VFIDs (%.6f) should be below those with %d (%.6f)",
				r.Parameter, r.VFIDCollisionFraction, prev.Parameter, prev.VFIDCollisionFraction)
		}
	}
}

func TestFig15TinyRun(t *testing.T) {
	scale := Tiny()
	rows := Fig15FromRecords(runJobs(t, Fig15Jobs(scale, []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})))
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Reroutes == 0 {
			t.Errorf("%s: link flap caused no reroutes", r.Scheme)
		}
		if r.Completed == 0 {
			t.Errorf("%s: no flows completed", r.Scheme)
		}
		if r.PreP99 == 0 || r.RecoverP99 == 0 {
			t.Errorf("%s: missing phase percentiles: %+v", r.Scheme, r)
		}
	}
}

func TestFig15Deterministic(t *testing.T) {
	// The same Fig 15 job must produce byte-identical records regardless of
	// runner parallelism (the scenario's flows, reroutes, and stranded
	// packets are all seed-derived).
	digest := func(parallel int) string {
		runner := harness.Runner{Parallel: parallel}
		recs, err := runner.Run(Fig15Jobs(Tiny(), []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCNWin}))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, rec := range recs {
			blob, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(blob)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if a, b := digest(1), digest(4); a != b {
		t.Fatal("Fig 15 records differ between -parallel 1 and -parallel 4")
	}
}

func TestFig16HostCounts(t *testing.T) {
	counts := Fig16HostCounts(Full())
	want := []int{128, 256, 512, 1024, 2048, 4096}
	if len(counts) != len(want) {
		t.Fatalf("full-scale host counts = %v, want %v", counts, want)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("full-scale host counts = %v, want %v", counts, want)
		}
	}
	// Reduced/tiny counts must be deduped and increasing after pod rounding.
	for _, scale := range []Scale{Tiny(), Reduced()} {
		counts := Fig16HostCounts(scale)
		if len(counts) == 0 {
			t.Fatalf("%s: empty host counts", scale.Name)
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] <= counts[i-1] {
				t.Fatalf("%s: host counts not strictly increasing: %v", scale.Name, counts)
			}
		}
	}
}

func TestFig16TinyRun(t *testing.T) {
	scale := Tiny()
	hostCounts := Fig16HostCounts(scale)[:1]
	rows := Fig16FromRecords(runJobs(t, Fig16Jobs(scale, hostCounts, []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})))
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Completed == 0 {
			t.Errorf("%s/hosts=%d: no flows completed", r.Scheme, r.Hosts)
		}
		if r.P99 < 1 {
			t.Errorf("%s/hosts=%d: p99 slowdown = %v, want >= 1", r.Scheme, r.Hosts, r.P99)
		}
		if r.Digest == "" || r.StatsSamples == 0 {
			t.Errorf("%s/hosts=%d: missing digest or stats samples: %+v", r.Scheme, r.Hosts, r)
		}
	}
}

func TestFig16Deterministic(t *testing.T) {
	// Scale-sweep records (including the streaming sketches inside the
	// Result) must be byte-identical regardless of runner parallelism.
	scale := Tiny()
	hostCounts := Fig16HostCounts(scale)[:1]
	digest := func(parallel int) string {
		runner := harness.Runner{Parallel: parallel}
		recs, err := runner.Run(Fig16Jobs(scale, hostCounts, []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCNWin}))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, rec := range recs {
			blob, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(blob)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if a, b := digest(1), digest(4); a != b {
		t.Fatal("Fig 16 records differ between -parallel 1 and -parallel 4")
	}
}

func TestFig16StreamingBounded(t *testing.T) {
	// A Fig 16 record's distributions must be sketches, and round-trip
	// through the harness wire format with queries intact.
	scale := Tiny()
	hostCounts := Fig16HostCounts(scale)[:1]
	recs := runJobs(t, Fig16Jobs(scale, hostCounts, []sim.Scheme{sim.SchemeBFC}))
	res := recs[0].Result
	if !res.BufferOccupancy.Streaming() {
		t.Fatal("Fig 16 runs must use streaming statistics")
	}
	blob, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	var back harness.Record
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Result.FCT.OverallPercentile(99), res.FCT.OverallPercentile(99); got != want {
		t.Fatalf("decoded p99 = %v, want %v", got, want)
	}
	if got, want := back.Result.BufferOccupancy.Percentile(99), res.BufferOccupancy.Percentile(99); got != want {
		t.Fatalf("decoded buffer p99 = %v, want %v", got, want)
	}
}
