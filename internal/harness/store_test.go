package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// putLine stores rec and returns its artifact's path and bytes.
func putLine(t testing.TB, store *Store, rec *Record) (path string, line []byte) {
	t.Helper()
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(store.Dir(), rec.Hash+".jsonl")
	line, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, line
}

// longRecord is a record whose artifact spans two of Read's compare chunks:
// a long meta value pads it to about 41 KB.
func longRecord(name string) *Record {
	rec := fakeRecord(name, map[string]string{"pad": strings.Repeat("x", 5*chunkSize/4)})
	rec.Extra = map[string]float64{"p99": 12.5}
	return rec
}

// FuzzStoreRead holds Read against its slow model — one newline, last, and
// valid JSON — over whatever bytes replace a stored artifact: twice, so the
// second call may take the remembered-bytes path, and then once more after
// the original bytes are put back. A blob longer than one compare chunk
// replaces the multi-chunk record, so the remembered bytes and the file are
// compared across chunk boundaries.
func FuzzStoreRead(f *testing.F) {
	store, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	short := fakeRecord("j/fuzz", map[string]string{"fig": "fig05a"})
	short.Extra = map[string]float64{"p99": 12.5}
	long := longRecord("j/fuzz-long")
	_, line := putLine(f, store, short)
	_, longLine := putLine(f, store, long)
	f.Add(line)
	f.Add(line[:len(line)/2])                                     // truncated
	f.Add(line[:len(line)-1])                                     // unterminated
	f.Add([]byte{})                                               // empty
	f.Add([]byte("{broken"))                                      // overwritten
	f.Add(bytes.Replace(line, []byte("12.5"), []byte("13.5"), 1)) // another valid line
	f.Add(append(bytes.Clone(line[:len(line)-2]), ' ', '\n'))     // closing brace blanked
	f.Add(longLine)                                               // multi-chunk record
	f.Fuzz(func(t *testing.T, blob []byte) {
		rec := short
		if len(blob) > chunkSize {
			rec = long
		}
		path, orig := putLine(t, store, rec)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		valid := bytes.IndexByte(blob, '\n') == len(blob)-1 && json.Valid(blob)
		for call := 1; call <= 2; call++ {
			got, ok, err := store.Read(rec.Hash)
			if valid && (err != nil || !ok || !bytes.Equal(got, blob)) {
				t.Fatalf("call %d: Read of valid %q = %q, %v, %v", call, blob, got, ok, err)
			}
			if !valid && (err == nil || ok || got != nil) {
				t.Fatalf("call %d: Read of invalid %q = %q, %v, %v, want an error", call, blob, got, ok, err)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := store.Read(rec.Hash); err != nil || !ok || !bytes.Equal(got, orig) {
			t.Fatalf("restored artifact: Read = %q, %v, %v", got, ok, err)
		}
	})
}

// TestStoreReadServesDiskBytes: what Read remembers is bytes, not a file. An
// artifact rewritten after a Read — at the same length or not, inside its
// first compare chunk or past it — is served or refused by its new bytes,
// exactly as a parse decides.
func TestStoreReadServesDiskBytes(t *testing.T) {
	short := fakeRecord("j/rewritten", nil)
	short.Extra = map[string]float64{"p99": 12.5}
	long := longRecord("j/rewritten-long")
	blankBrace := func(line []byte) []byte {
		line = bytes.Clone(line)
		line[len(line)-2] = ' '
		return line
	}
	rows := []struct {
		name  string
		rec   *Record
		edit  func(line []byte) []byte
		valid bool
	}{
		{"one digit changed", short, func(line []byte) []byte { return bytes.Replace(line, []byte("12.5"), []byte("13.5"), 1) }, true},
		{"closing brace blanked", short, blankBrace, false},
		{"long: byte flipped past the first chunk", long, func(line []byte) []byte {
			line = bytes.Clone(line)
			line[chunkSize+100] = 'y' // inside the padding
			return line
		}, true},
		{"long: closing brace blanked", long, blankBrace, false},
		{"long: truncated after the first chunk", long, func(line []byte) []byte { return bytes.Clone(line[:chunkSize]) }, false},
		{"long: a line appended", long, func(line []byte) []byte { return append(bytes.Clone(line), line...) }, false},
		{"long: blanks appended", long, func(line []byte) []byte {
			return append(bytes.Clone(line[:len(line)-1]), ' ', ' ', '\n')
		}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			store, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path, line := putLine(t, store, row.rec)
			if got, ok, err := store.Read(row.rec.Hash); err != nil || !ok || !bytes.Equal(got, line) {
				t.Fatalf("Read = %q, %v, %v", got, ok, err)
			}
			edited := row.edit(line)
			if bytes.Equal(edited, line) {
				t.Fatalf("edit left the artifact as it was")
			}
			if parses := bytes.IndexByte(edited, '\n') == len(edited)-1 && json.Valid(edited); parses != row.valid {
				t.Fatalf("row says valid=%v, a parse says %v", row.valid, parses)
			}
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			got, ok, err := store.Read(row.rec.Hash)
			if row.valid && (err != nil || !ok || !bytes.Equal(got, edited)) {
				t.Fatalf("Read after rewrite = %.80q, %v, %v, want the new bytes", got, ok, err)
			}
			if !row.valid && (err == nil || ok || got != nil) {
				t.Fatalf("Read after rewrite = %.80q, %v, %v, want an error", got, ok, err)
			}
		})
	}
}

// TestStoreReadSharesRememberedBytes: Reads of an unchanged artifact return
// equal bytes: one remembered copy, whether the first Read parsed the file (a
// fresh Store) or the Store wrote it.
func TestStoreReadSharesRememberedBytes(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := longRecord("j/shared")
	_, line := putLine(t, writer, rec)
	reopened, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]*Store{"writer": writer, "reopened": reopened} {
		first, ok, err := store.Read(rec.Hash)
		if err != nil || !ok || !bytes.Equal(first, line) {
			t.Fatalf("%s: first Read = %.80q, %v, %v", name, first, ok, err)
		}
		second, ok, err := store.Read(rec.Hash)
		if err != nil || !ok || !bytes.Equal(second, first) {
			t.Fatalf("%s: second Read = %.80q, %v, %v, want the first's bytes", name, second, ok, err)
		}
		if &second[0] != &first[0] {
			t.Fatalf("%s: a hit returned a copy, not the remembered bytes", name)
		}
	}
}

// TestStoreReadConcurrent: goroutines reading one artifact share the
// remembered bytes while Put writes it again and replaces them; every Read
// returns the artifact's bytes. Run under -race, it checks that sharing.
func TestStoreReadConcurrent(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := longRecord("j/concurrent")
	_, line := putLine(t, store, rec)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, ok, err := store.Read(rec.Hash); err != nil || !ok || !bytes.Equal(got, line) {
					t.Errorf("Read = %.80q, %v, %v", got, ok, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := store.Put(rec); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}

// TestStoreReadHitAllocationIsBounded: a hit reads the file through one
// pooled chunk and returns the remembered bytes, so what it allocates (the
// open file, its Stat, the path) does not grow with the artifact.
func TestStoreReadHitAllocationIsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random, so a hit may allocate a chunk")
	}
	const reads, bound = 256, 1 << 10
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{17 << 10, 256 << 10} {
		rec := fakeRecord(fmt.Sprintf("j/alloc-%d", size), map[string]string{"pad": strings.Repeat("x", size)})
		_, line := putLine(t, store, rec)
		if _, ok, err := store.Read(rec.Hash); err != nil || !ok {
			t.Fatalf("Read = %v, %v", ok, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			if _, ok, err := store.Read(rec.Hash); err != nil || !ok {
				t.Fatalf("Read = %v, %v", ok, err)
			}
		}
		runtime.ReadMemStats(&after)
		if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead > bound {
			t.Errorf("a hit on a %d-byte artifact allocates %d B, want <= %d", len(line), perRead, bound)
		}
	}
}
