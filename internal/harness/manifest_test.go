package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bfc/internal/sim"
)

// fakeRecord builds a minimal record without running a simulation; manifest
// handling never looks inside Result.
func fakeRecord(name string, meta map[string]string) *Record {
	j := Job{Name: name, Scheme: sim.SchemeBFC, Meta: meta}
	return &Record{
		Name:   name,
		Hash:   j.Hash(),
		Scheme: j.Scheme.String(),
		Seed:   j.Seed(),
		Meta:   meta,
	}
}

func mustList(t *testing.T, store *Store) []ManifestEntry {
	t.Helper()
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestStoreListTracksPuts(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := mustList(t, store); len(got) != 0 {
		t.Fatalf("empty store lists %d entries", len(got))
	}
	recs := []*Record{
		fakeRecord("suite/b", map[string]string{"fig": "fig05a"}),
		fakeRecord("suite/a", nil),
		fakeRecord("suite/c", map[string]string{"scheme": "BFC"}),
	}
	for _, rec := range recs {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	entries := mustList(t, store)
	if len(entries) != 3 {
		t.Fatalf("List returned %d entries, want 3", len(entries))
	}
	// Sorted by name, and carrying the job identity.
	wantNames := []string{"suite/a", "suite/b", "suite/c"}
	for i, e := range entries {
		if e.Name != wantNames[i] {
			t.Fatalf("entry %d has name %q, want %q", i, e.Name, wantNames[i])
		}
		if e.Scheme != "BFC" {
			t.Fatalf("entry %d has scheme %q", i, e.Scheme)
		}
		if e.Spec().Hash() != e.Hash {
			t.Fatalf("entry %d: spec hash %s != stored hash %s", i, e.Spec().Hash(), e.Hash)
		}
	}
	// Re-putting an existing record must not create duplicates.
	if err := store.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if entries := mustList(t, store); len(entries) != 3 {
		t.Fatalf("List after re-put returned %d entries, want 3", len(entries))
	}
}

func TestStoreListRecoversFromCrashMidAppend(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"j/a", "j/b"} {
		if err := store.Put(fakeRecord(name, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: the manifest ends in a truncated line.
	mpath := filepath.Join(dir, manifestName)
	blob, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	truncated := blob[:len(blob)-10]
	if err := os.WriteFile(mpath, append(truncated, `{"hash":"dead`...), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := mustList(t, store)
	if len(entries) != 2 {
		t.Fatalf("List after truncation returned %d entries, want 2", len(entries))
	}
	// The repair must have rewritten the manifest: re-read it raw and check
	// every line parses.
	repaired, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(repaired)), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("repaired manifest still holds damaged line %q", line)
		}
	}
}

func TestStoreListRecoversUnindexedArtifacts(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := fakeRecord("j/unindexed", map[string]string{"fig": "fig08"})
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between artifact rename and manifest append (and the
	// pre-manifest store layout) by deleting the manifest outright.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	entries := mustList(t, store)
	if len(entries) != 1 || entries[0].Name != "j/unindexed" || entries[0].Meta["fig"] != "fig08" {
		t.Fatalf("List did not recover the unindexed artifact: %+v", entries)
	}
	// Recovery must persist: the rebuilt manifest alone now carries the entry.
	if entries := mustList(t, store); len(entries) != 1 {
		t.Fatalf("second List returned %d entries, want 1", len(entries))
	}
}

func TestStoreListDropsEntriesForMissingArtifacts(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := fakeRecord("j/keep", nil)
	gone := fakeRecord("j/gone", nil)
	for _, rec := range []*Record{keep, gone} {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, gone.Hash+".jsonl")); err != nil {
		t.Fatal(err)
	}
	entries := mustList(t, store)
	if len(entries) != 1 || entries[0].Name != "j/keep" {
		t.Fatalf("List kept stale entries: %+v", entries)
	}
}

// TestStoreCrashPoints leaves a store directory as a process stopped after
// each step of Put, and of List's manifest rewrite, would leave it, reopens
// it, and holds the reopened store to its contract: List returns exactly the
// complete artifacts, Has and Get agree with it, a second List finds nothing
// left to repair, and no temp file is ever served as a record. Every row
// starts from two complete, indexed records (a and b); the stopped operation
// is a Put of c or a List.
func TestStoreCrashPoints(t *testing.T) {
	a := fakeRecord("j/a", nil)
	b := fakeRecord("j/b", map[string]string{"fig": "fig08"})
	c := fakeRecord("j/c", map[string]string{"fig": "fig09"})
	d := fakeRecord("j/d", nil)
	marshal := func(v any) []byte {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(blob, '\n')
	}
	entry := func(rec *Record) []byte {
		return marshal(ManifestEntry{Hash: rec.Hash, Name: rec.Name, Scheme: rec.Scheme, Meta: rec.Meta})
	}
	write := func(t *testing.T, path string, blob []byte, flag int) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(blob); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// midAppend is Put(c) stopped inside the manifest append: the artifact is
	// in place, half its index line is written.
	midAppend := func(t *testing.T, dir string) {
		write(t, filepath.Join(dir, c.Hash+".jsonl"), marshal(c), 0)
		line := entry(c)
		write(t, filepath.Join(dir, manifestName), line[:len(line)/2], os.O_APPEND)
	}
	rows := []struct {
		name string
		// stop edits the directory into the state the stopped operation left.
		stop func(t *testing.T, dir string)
		// next, when set, runs on the reopened store before it is checked.
		next         func(t *testing.T, store *Store)
		want, absent []*Record
	}{
		{
			name: "put: artifact temp written",
			stop: func(t *testing.T, dir string) {
				write(t, filepath.Join(dir, "."+c.Hash+".tmp1"), marshal(c), 0)
			},
			want: []*Record{a, b}, absent: []*Record{c},
		},
		{
			name: "put: artifact renamed, manifest not appended",
			stop: func(t *testing.T, dir string) {
				write(t, filepath.Join(dir, c.Hash+".jsonl"), marshal(c), 0)
			},
			want: []*Record{a, b, c},
		},
		{
			name: "put: manifest line half-written",
			stop: midAppend,
			want: []*Record{a, b, c},
		},
		{
			// The restarted process appends to the damaged manifest before
			// anything lists it: d's line lands on the tail of c's half line.
			name: "put: manifest line half-written, then the next put",
			stop: midAppend,
			next: func(t *testing.T, store *Store) {
				if err := store.Put(d); err != nil {
					t.Fatal(err)
				}
			},
			want: []*Record{a, b, c, d},
		},
		{
			name: "list: manifest temp written, not renamed",
			stop: func(t *testing.T, dir string) {
				write(t, filepath.Join(dir, c.Hash+".jsonl"), marshal(c), 0) // what List was repairing
				write(t, filepath.Join(dir, ".manifest.tmp1"), slices.Concat(entry(a), entry(b), entry(c)), 0)
			},
			want: []*Record{a, b, c},
		},
		{
			name: "list: manifest temp half-written",
			stop: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, b.Hash+".jsonl")); err != nil { // what List was repairing
					t.Fatal(err)
				}
				line := entry(a)
				write(t, filepath.Join(dir, ".manifest.tmp1"), line[:len(line)/2], 0)
			},
			want: []*Record{a}, absent: []*Record{b},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []*Record{a, b} {
				if err := store.Put(rec); err != nil {
					t.Fatal(err)
				}
			}
			row.stop(t, dir)
			if store, err = NewStore(dir); err != nil {
				t.Fatal(err)
			}
			if row.next != nil {
				row.next(t, store)
			}

			entries := mustList(t, store)
			if len(entries) != len(row.want) {
				t.Fatalf("List returned %d entries, want %d: %+v", len(entries), len(row.want), entries)
			}
			for i, rec := range row.want { // want is in name order, like List
				if e := entries[i]; e.Hash != rec.Hash || e.Name != rec.Name || e.Meta["fig"] != rec.Meta["fig"] {
					t.Fatalf("entry %d is %+v, want %s %s", i, e, rec.Hash, rec.Name)
				}
				got, ok, err := store.Get(rec.Hash)
				if err != nil || !ok || got.Name != rec.Name || !store.Has(rec.Hash) {
					t.Fatalf("listed record %s: Get = %v, %v, Has = %v", rec.Name, ok, err, store.Has(rec.Hash))
				}
			}
			for _, rec := range row.absent {
				if _, ok, err := store.Get(rec.Hash); ok || err != nil || store.Has(rec.Hash) {
					t.Fatalf("incomplete record %s is served: Get = %v, %v, Has = %v", rec.Name, ok, err, store.Has(rec.Hash))
				}
			}

			// The first List left a manifest of exactly the complete artifacts,
			// so the second replaces nothing (a rewrite lands by rename, which
			// would change the file).
			mpath := filepath.Join(dir, manifestName)
			var index []byte
			for _, rec := range row.want {
				index = append(index, entry(rec)...)
			}
			if blob, err := os.ReadFile(mpath); err != nil || !bytes.Equal(blob, index) {
				t.Fatalf("manifest after List (%v):\n%swant:\n%s", err, blob, index)
			}
			before, err := os.Stat(mpath)
			if err != nil {
				t.Fatal(err)
			}
			if again := mustList(t, store); !reflect.DeepEqual(again, entries) {
				t.Fatalf("second List returned %+v, first %+v", again, entries)
			}
			after, err := os.Stat(mpath)
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(before, after) {
				t.Fatal("second List rewrote the manifest")
			}

			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if !strings.Contains(f.Name(), ".tmp") {
					continue
				}
				if _, ok, _ := store.Get(f.Name()); ok || store.Has(f.Name()) || artifactPattern.MatchString(f.Name()) {
					t.Fatalf("temp file %s is served as a record", f.Name())
				}
			}
		})
	}
}

func TestMergeManifestsUnionsAndDedupes(t *testing.T) {
	a := []ManifestEntry{
		{Hash: "aaaaaaaaaaaaaaaa", Name: "j/c", Scheme: "BFC"},
		{Hash: "bbbbbbbbbbbbbbbb", Name: "j/a", Scheme: "BFC", Meta: map[string]string{"src": "a"}},
	}
	b := []ManifestEntry{
		{Hash: "bbbbbbbbbbbbbbbb", Name: "j/a", Scheme: "BFC", Meta: map[string]string{"src": "b"}},
		{Hash: "cccccccccccccccc", Name: "j/b", Scheme: "DCQCN"},
		{Hash: "", Name: "j/broken"},
	}
	merged := MergeManifests(a, b)
	if len(merged) != 3 {
		t.Fatalf("merged %d entries, want 3: %+v", len(merged), merged)
	}
	wantNames := []string{"j/a", "j/b", "j/c"}
	for i, e := range merged {
		if e.Name != wantNames[i] {
			t.Fatalf("entry %d is %q, want %q", i, e.Name, wantNames[i])
		}
	}
	// Overlapping hashes: the first list wins.
	if merged[0].Meta["src"] != "a" {
		t.Fatalf("overlap resolved to %+v, want the first list's entry", merged[0])
	}
	if got := MergeManifests(nil, nil); len(got) != 0 {
		t.Fatalf("merging empty manifests yields %+v", got)
	}
}

// TestMergeManifestsFleetView exercises the fleet-wide manifest union end to
// end: two stores (a coordinator's and a worker's) with overlapping work,
// crash damage on both sides — a truncated manifest line here, a manifest
// entry whose artifact vanished there — must merge into exactly the set of
// decodable artifacts, each listed once.
func TestMergeManifestsFleetView(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	storeA, err := NewStore(dirA)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := NewStore(dirB)
	if err != nil {
		t.Fatal(err)
	}
	shared := fakeRecord("j/shared", nil)
	onlyA := fakeRecord("j/only-a", nil)
	onlyB := fakeRecord("j/only-b", nil)
	goneB := fakeRecord("j/gone-b", nil)
	for _, rec := range []*Record{shared, onlyA} {
		if err := storeA.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []*Record{shared, onlyB, goneB} {
		if err := storeB.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Crash damage on side A: the manifest ends in a truncated append.
	mpathA := filepath.Join(dirA, manifestName)
	blob, err := os.ReadFile(mpathA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpathA, append(blob, `{"hash":"feed`...), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash damage on side B: a truncated trailing line plus an artifact that
	// disappeared out from under its manifest entry.
	mpathB := filepath.Join(dirB, manifestName)
	blob, err = os.ReadFile(mpathB)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpathB, append(blob, `{"name":"j/trunc`...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dirB, goneB.Hash+".jsonl")); err != nil {
		t.Fatal(err)
	}
	merged := MergeManifests(mustList(t, storeA), mustList(t, storeB))
	wantNames := []string{"j/only-a", "j/only-b", "j/shared"}
	if len(merged) != len(wantNames) {
		t.Fatalf("fleet view has %d entries, want %d: %+v", len(merged), len(wantNames), merged)
	}
	for i, e := range merged {
		if e.Name != wantNames[i] {
			t.Fatalf("entry %d is %q, want %q", i, e.Name, wantNames[i])
		}
	}
}

func TestStoreHas(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := fakeRecord("j/present", nil)
	if store.Has(rec.Hash) {
		t.Fatal("Has reported an artifact before Put")
	}
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	if !store.Has(rec.Hash) {
		t.Fatal("Has missed a stored artifact")
	}
	// Hostile hashes must not turn into path probes.
	for _, h := range []string{"", "../../etc/passwd", "zzzz", strings.Repeat("a", 64)} {
		if store.Has(h) {
			t.Fatalf("Has accepted malformed hash %q", h)
		}
	}
}
