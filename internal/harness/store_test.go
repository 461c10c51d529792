package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

// FuzzStoreRead holds Read against its slow model — one newline, last, and
// valid JSON — over whatever bytes replace a stored artifact: twice, so the
// second call may take the remembered-bytes path, and then once more after
// the original bytes are put back.
func FuzzStoreRead(f *testing.F) {
	store, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	rec := fakeRecord("j/fuzz", map[string]string{"fig": "fig05a"})
	rec.Extra = map[string]float64{"p99": 12.5}
	_, line := putLine(f, store, rec)
	f.Add(line)
	f.Add(line[:len(line)/2])                                     // truncated
	f.Add(line[:len(line)-1])                                     // unterminated
	f.Add([]byte{})                                               // empty
	f.Add([]byte("{broken"))                                      // overwritten
	f.Add(bytes.Replace(line, []byte("12.5"), []byte("13.5"), 1)) // another valid line
	f.Add(append(bytes.Clone(line[:len(line)-2]), ' ', '\n'))     // closing brace blanked
	f.Fuzz(func(t *testing.T, blob []byte) {
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
// artifact rewritten at the same length after a Read is served or refused by
// its new bytes.
func TestStoreReadServesDiskBytes(t *testing.T) {
	rec := fakeRecord("j/rewritten", nil)
	rec.Extra = map[string]float64{"p99": 12.5}
	rows := []struct {
		name  string
		edit  func(line []byte) []byte
		valid bool
	}{
		{"one digit changed", func(line []byte) []byte { return bytes.Replace(line, []byte("12.5"), []byte("13.5"), 1) }, true},
		{"closing brace blanked", func(line []byte) []byte {
			line = bytes.Clone(line)
			line[len(line)-2] = ' '
			return line
		}, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			store, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path, line := putLine(t, store, rec)
			if got, ok, err := store.Read(rec.Hash); err != nil || !ok || !bytes.Equal(got, line) {
				t.Fatalf("Read = %q, %v, %v", got, ok, err)
			}
			edited := row.edit(line)
			if len(edited) != len(line) || bytes.Equal(edited, line) {
				t.Fatalf("edit is not a same-length rewrite: %q", edited)
			}
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			got, ok, err := store.Read(rec.Hash)
			if row.valid && (err != nil || !ok || !bytes.Equal(got, edited)) {
				t.Fatalf("Read after rewrite = %q, %v, %v, want %q", got, ok, err, edited)
			}
			if !row.valid && (err == nil || ok || got != nil) {
				t.Fatalf("Read after rewrite = %q, %v, %v, want an error", got, ok, err)
			}
		})
	}
}
