package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRunFlagsDeclaredOnce pins the shared flag set: the names a command gets
// by registering RunFlags, each declared exactly once (a second declaration
// of any of them on the same set panics in package flag).
func TestRunFlagsDeclaredOnce(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterRunFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	want := "cpuprofile exec-stats log-json log-level memprofile parallel shards trace-dir"
	if strings.Join(got, " ") != want {
		t.Fatalf("run flags %v, want %s", got, want)
	}
}

// TestRunFlagsAreHashNeutralAndExport runs one per-scheme grid plain and then
// with every observing flag on: hashes and records must not move, the
// profile goes to stderr, and each scheme's three files appear. A resumed run
// simulates nothing and so exports nothing, with a note per job.
func TestRunFlagsAreHashNeutralAndExport(t *testing.T) {
	perScheme := func() []Job {
		all := testJobs(t)
		return []Job{all[0], all[2]} // BFC and DCQCN at queues=8
	}
	plainJobs := perScheme()
	plain, err := (&Runner{}).Run(plainJobs)
	if err != nil {
		t.Fatal(err)
	}

	dir, store := t.TempDir(), t.TempDir()
	parse := func(args ...string) *RunFlags {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		rf := RegisterRunFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return rf
	}
	rf := parse("-parallel", "2", "-shards", "2", "-exec-stats", "-trace-dir", dir)
	st, err := NewStore(store)
	if err != nil {
		t.Fatal(err)
	}
	jobs := perScheme()
	var stderr bytes.Buffer
	recs, err := rf.Run(&Runner{Store: st}, jobs, 1<<12, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Hash() != plainJobs[i].Hash() {
			t.Errorf("job %q: hash moved under the run flags", jobs[i].Name)
		}
	}
	if !bytes.Equal(marshalRecords(t, recs), marshalRecords(t, plain)) {
		t.Error("records moved under the run flags")
	}
	if !strings.Contains(stderr.String(), "# test/scheme=BFC/queues=8 exec: shards=") ||
		!strings.Contains(stderr.String(), "# exec: runs=2 ") {
		t.Errorf("stderr lacks the execution profiles:\n%s", stderr.String())
	}
	// The header names the coordinator's events beside the run's.
	for _, rec := range recs {
		ex := rec.Result.Exec
		want := fmt.Sprintf("# %s exec: shards=2 events=%d coord=%d ", rec.Name, ex.TotalEvents, ex.CoordEvents)
		if ex.CoordEvents == 0 || !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	for _, name := range []string{"BFC.trace.json", "BFC.events.jsonl", "BFC.exec.json", "DCQCN.trace.json", "DCQCN.events.jsonl", "DCQCN.exec.json"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v", name, err)
		}
	}

	// Resumed: every record comes from the store.
	dir2 := filepath.Join(dir, "resumed")
	rf = parse("-trace-dir", dir2)
	stderr.Reset()
	var c tally
	if _, err := rf.Run(&Runner{Store: st, Resume: true, Progress: c.progress}, perScheme(), 1<<12, &stderr); err != nil {
		t.Fatal(err)
	}
	if c.ran != 0 || strings.Count(stderr.String(), "not re-simulated") != 2 {
		t.Errorf("resumed run executed %d jobs; stderr:\n%s", c.ran, stderr.String())
	}
	if files, _ := filepath.Glob(filepath.Join(dir2, "*")); len(files) != 0 {
		t.Errorf("resumed run exported %v", files)
	}

	// ringCap 0: the jobs are not an exportable grid; nothing is written.
	dir3 := filepath.Join(dir, "unexported")
	if _, err := parse("-trace-dir", dir3).Run(&Runner{}, perScheme(), 0, &stderr); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir3); !os.IsNotExist(err) {
		t.Errorf("ringCap 0 created %s", dir3)
	}
}
