package service

import (
	"testing"
)

// FuzzParseSuiteSpec drives the daemon's submission boundary: arbitrary bytes
// must yield a spec or an error, never a panic — and an accepted spec must
// either compile or fail compilation with an error. Compilation builds no
// topologies and runs no simulations, so fuzzing the full parse+compile path
// is cheap; the seeds cover all three suite forms (figure, scenario, run).
func FuzzParseSuiteSpec(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"figure":"fig05a"}`,
		`{"figure":"fig05a","scale":"tiny","schemes":["BFC","DCQCN"]}`,
		`{"figure":"fig16","scale":"reduced","schemes":["BFC"]}`,
		`{"figure":"fig08","scale":"tiny"}`,
		`{"name":"demo","scale":"tiny","scenario":{"name":"flap","events":[{"at_us":30,"kind":"link_down","link":{"a":"tor0","b":"spine0"}},{"at_us":90,"kind":"link_up","link":{"a":"tor0","b":"spine0"}}]}}`,
		`{"figure":"fig05a","scenario":{"name":"x","events":[]}}`,
		`{"figure":"fig05a","schemes":["BFC","BFC"]}`,
		`{"scenario":{"name":"big","events":[{"at_us":1e308,"kind":"incast","fan_in":-1,"aggregate_kb":1e999}]}}`,
		`{"schemes":["BFC","DCQCN"],"run":{"topology":"clos:2x2x4","workload":"google","load":0.6,"duration_us":150,"drain_us":400,"seed":1,"queues":32,"buffer_mb":12}}`,
		`{"run":{"topology":"fattree:4096","workload":"websearch","load":1,"incast":true,"duration_us":1e5,"drain_us":0,"seed":-7,"queues":1024,"buffer_mb":1,"scenario":{"name":"flap","events":[{"at_us":30,"kind":"link_down","link":{"a":"tor0","b":"spine0"}}]}}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSuiteSpec(data)
		if err != nil {
			return
		}
		cs, err := spec.Compile()
		if err != nil {
			return
		}
		if len(cs.Jobs) == 0 {
			t.Fatal("compiled suite has no jobs")
		}
		if cs.Digest == "" {
			t.Fatal("compiled suite has no digest")
		}
	})
}
