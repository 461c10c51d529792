package harness_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		dup.Hash = harness.JobSpec{Name: dup.Name, Scheme: dup.Scheme, Meta: dup.Meta}.Hash()
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
