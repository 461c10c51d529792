package harness_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/sim"
)

type countingReader struct {
	io.ReadSeeker
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadSeeker.Read(p)
	c.n += int64(n)
	return n, err
}

// BenchmarkStoreRead is the cost of a cache hit on a real tiny-scale Fig 5a
// record (~17 KB): the artifact is read from disk either way. "hit" compares
// it chunk by chunk with the bytes the store wrote and returns those, copying
// nothing; "miss" (the store's memo emptied before each Read) reads it into
// one buffer and parses it as JSON.
func BenchmarkStoreRead(b *testing.B) {
	scale, _ := experiments.ScaleByName("tiny")
	jobs := experiments.Fig05Jobs(scale, experiments.Fig05aGoogleIncast, []sim.Scheme{sim.SchemeBFC})
	rec, err := jobs[0].Execute()
	if err != nil {
		b.Fatal(err)
	}
	store, err := harness.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Put(rec); err != nil {
		b.Fatal(err)
	}
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if miss {
					store.Forget()
				}
				line, ok, err := store.Read(rec.Hash)
				if err != nil || !ok {
					b.Fatalf("Read = %v, %v", ok, err)
				}
				b.SetBytes(int64(len(line)))
			}
		})
	}
}

// TestListReadsOnlyTheIdentity: a record declares its identity (the
// embedded ManifestEntry) ahead of its result, so List's readEntry reads a
// few hundred bytes of a real tiny Fig 5a artifact, not its whole line.
func TestListReadsOnlyTheIdentity(t *testing.T) {
	scale, _ := experiments.ScaleByName("tiny")
	jobs := experiments.Fig05Jobs(scale, experiments.Fig05aGoogleIncast, []sim.Scheme{sim.SchemeBFC})
	rec, err := jobs[0].Execute()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := harness.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, rec.Hash+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingReader{ReadSeeker: f}
	e, ok := harness.ReadEntry(cr)
	if !ok || !reflect.DeepEqual(e, rec.ManifestEntry) {
		t.Fatalf("read identity %+v (ok %v), want %+v", e, ok, rec.ManifestEntry)
	}
	const limit = 2 << 10
	if cr.n > limit || info.Size() <= limit {
		t.Fatalf("readEntry read %d bytes of a %d-byte artifact; want at most %d of one larger than that", cr.n, info.Size(), limit)
	}
}

// BenchmarkStoreList is the measurement behind keeping no index: List over
// 256 artifacts of a real tiny-scale Fig 5a record (~17 KB each) opens every
// file and reads its identity off the front. read-B/artifact is what the
// decoder pulled from each file to do so, against the artifact's full size.
func BenchmarkStoreList(b *testing.B) {
	scale, _ := experiments.ScaleByName("tiny")
	jobs := experiments.Fig05Jobs(scale, experiments.Fig05aGoogleIncast, []sim.Scheme{sim.SchemeBFC})
	rec, err := jobs[0].Execute()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	store, err := harness.NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	const artifacts = 256
	var read, size int64
	for i := 0; i < artifacts; i++ {
		dup := *rec
		dup.Name = fmt.Sprintf("%s/copy=%d", rec.Name, i)
		dup.Hash = (&harness.Job{Name: dup.Name, Scheme: sim.SchemeBFC, Meta: dup.Meta}).Hash()
		if err := store.Put(&dup); err != nil {
			b.Fatal(err)
		}
		f, err := os.Open(filepath.Join(dir, dup.Hash+".jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		cr := &countingReader{ReadSeeker: f}
		if e, ok := harness.ReadEntry(cr); !ok || e.Hash != dup.Hash {
			b.Fatalf("artifact %d does not open with its identity", i)
		}
		info, err := f.Stat()
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
		read, size = read+cr.n, size+info.Size()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := store.List()
		if err != nil || len(entries) != artifacts {
			b.Fatalf("List = %d entries, %v", len(entries), err)
		}
	}
	b.ReportMetric(float64(read)/artifacts, "read-B/artifact")
	b.ReportMetric(float64(size)/artifacts, "size-B/artifact")
}
