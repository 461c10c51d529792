package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
		if spec := (JobSpec{Name: e.Name, Scheme: e.Scheme, Meta: e.Meta}); spec.Hash() != e.Hash {
			t.Fatalf("entry %d: spec hash %s != stored hash %s", i, spec.Hash(), e.Hash)
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

// staleManifest is the index file stores kept beside their artifacts before
// the artifact became the only copy of a result. A directory written by such
// a binary still holds one; to this store it is a file that matches no
// artifact name.
const staleManifest = "MANIFEST.jsonl"

// TestStoreCrashPoints leaves a store directory as a process stopped after
// each step of Put would leave it — and as damage, other processes, and older
// binaries that kept a MANIFEST.jsonl index (whose own Put and List steps are
// the "manifest" rows) can leave it — reopens it, and holds the reopened store
// to its contract: List returns exactly the complete artifacts, Has, Read and
// Get agree with it, a damaged artifact is an error rather than a record,
// listing changes nothing in the directory, and no temp file is ever served.
// Every row starts from two complete records (a and b).
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
	entry := func(rec *Record) ManifestEntry {
		return ManifestEntry{Hash: rec.Hash, Name: rec.Name, Scheme: rec.Scheme, Meta: rec.Meta}
	}
	index := func(recs ...*Record) []byte {
		var blob []byte
		for _, rec := range recs {
			blob = append(blob, marshal(entry(rec))...)
		}
		return blob
	}
	write := func(t *testing.T, path string, blob []byte) {
		t.Helper()
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(t *testing.T, path string) {
		t.Helper()
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	artifact := func(dir string, rec *Record) string { return filepath.Join(dir, rec.Hash+".jsonl") }
	// midAppend is an older binary's Put(c) stopped inside its manifest append:
	// the artifact is in place, half its index line is written.
	midAppend := func(t *testing.T, dir string) {
		write(t, artifact(dir, c), marshal(c))
		line := index(c)
		write(t, filepath.Join(dir, staleManifest), append(index(a, b), line[:len(line)/2]...))
	}
	rows := []struct {
		name string
		// stop edits the directory into the state under test.
		stop func(t *testing.T, dir string)
		// next, when set, runs on the reopened store before it is checked.
		next func(t *testing.T, store *Store)
		// want are the records served, in name order like List; absent have no
		// artifact; damaged have one that must not be served.
		want, absent, damaged []*Record
	}{
		{
			name: "put: artifact temp written",
			stop: func(t *testing.T, dir string) {
				write(t, filepath.Join(dir, "."+c.Hash+".tmp1"), marshal(c))
			},
			want: []*Record{a, b}, absent: []*Record{c},
		},
		{
			name: "put: artifact renamed, manifest not appended",
			stop: func(t *testing.T, dir string) { write(t, artifact(dir, c), marshal(c)) },
			want: []*Record{a, b, c},
		},
		{
			name: "put: manifest line half-written",
			stop: midAppend,
			want: []*Record{a, b, c},
		},
		{
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
				write(t, artifact(dir, c), marshal(c))
				write(t, filepath.Join(dir, staleManifest), index(a, b))
				write(t, filepath.Join(dir, ".manifest.tmp1"), index(a, b, c))
			},
			want: []*Record{a, b, c},
		},
		{
			name: "list: manifest temp half-written",
			stop: func(t *testing.T, dir string) {
				remove(t, artifact(dir, b))
				write(t, filepath.Join(dir, staleManifest), index(a, b))
				line := index(a)
				write(t, filepath.Join(dir, ".manifest.tmp1"), line[:len(line)/2])
			},
			want: []*Record{a}, absent: []*Record{b},
		},
		{
			name: "stale manifest: intact",
			stop: func(t *testing.T, dir string) { write(t, filepath.Join(dir, staleManifest), index(a, b)) },
			want: []*Record{a, b},
		},
		{
			name: "stale manifest: names artifacts that are gone",
			stop: func(t *testing.T, dir string) {
				write(t, filepath.Join(dir, staleManifest), index(a, b, c))
				remove(t, artifact(dir, b))
			},
			want: []*Record{a}, absent: []*Record{b, c},
		},
		{
			name: "stale manifest: garbled",
			stop: func(t *testing.T, dir string) {
				write(t, filepath.Join(dir, staleManifest), []byte("\x00\xff{\"hash\":\"dead\n}}\n"))
			},
			want: []*Record{a, b},
		},
		{
			name: "artifact deleted",
			stop: func(t *testing.T, dir string) { remove(t, artifact(dir, b)) },
			want: []*Record{a}, absent: []*Record{b},
		},
		{
			name: "artifact put by another process",
			stop: func(t *testing.T, dir string) {},
			next: func(t *testing.T, store *Store) {
				other, err := NewStore(store.Dir())
				if err != nil {
					t.Fatal(err)
				}
				if err := other.Put(c); err != nil {
					t.Fatal(err)
				}
			},
			want: []*Record{a, b, c},
		},
		{
			name: "artifact truncated",
			stop: func(t *testing.T, dir string) {
				line := marshal(c)
				write(t, artifact(dir, c), line[:len(line)-3])
			},
			want: []*Record{a, b}, damaged: []*Record{c},
		},
		{
			name: "artifact truncated inside its identity",
			stop: func(t *testing.T, dir string) { write(t, artifact(dir, c), marshal(c)[:20]) },
			want: []*Record{a, b}, damaged: []*Record{c},
		},
		{
			name: "artifact empty",
			stop: func(t *testing.T, dir string) { write(t, artifact(dir, c), nil) },
			want: []*Record{a, b}, damaged: []*Record{c},
		},
		{
			// Not damage Read can see, but List must not name a file by what
			// is inside it.
			name: "artifact under another record's hash",
			stop: func(t *testing.T, dir string) { write(t, artifact(dir, d), marshal(c)) },
			want: []*Record{a, b}, absent: []*Record{c},
		},
	}
	// snapshot is the directory as List must leave it: every file's name, size
	// and identity (a rewrite lands by rename, which changes the identity).
	snapshot := func(t *testing.T, dir string) map[string]os.FileInfo {
		t.Helper()
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]os.FileInfo{}
		for _, f := range files {
			info, err := f.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[f.Name()] = info
		}
		return out
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
			before := snapshot(t, dir)
			manifest, manifestErr := os.ReadFile(filepath.Join(dir, staleManifest))

			var want []ManifestEntry
			for _, rec := range row.want {
				want = append(want, entry(rec))
			}
			entries := mustList(t, store)
			if !reflect.DeepEqual(entries, want) {
				t.Fatalf("List returned %+v, want %+v", entries, want)
			}
			for _, rec := range row.want {
				line, ok, err := store.Read(rec.Hash)
				if err != nil || !ok || !bytes.Equal(line, marshal(rec)) {
					t.Fatalf("listed record %s: Read = %q, %v, %v", rec.Name, line, ok, err)
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
			for _, rec := range row.damaged {
				if !store.Has(rec.Hash) {
					t.Fatalf("damaged artifact %s: Has = false", rec.Name)
				}
				if line, ok, err := store.Read(rec.Hash); err == nil || ok || line != nil {
					t.Fatalf("damaged artifact %s: Read = %q, %v, %v, want an error", rec.Name, line, ok, err)
				}
				if got, ok, err := store.Get(rec.Hash); err == nil || ok || got != nil {
					t.Fatalf("damaged artifact %s: Get = %v, %v, %v, want an error", rec.Name, got, ok, err)
				}
			}

			// Listing and reading are pure: a second List says the same, and
			// neither created, replaced nor resized a file — a stale manifest
			// least of all.
			if again := mustList(t, store); !reflect.DeepEqual(again, entries) {
				t.Fatalf("second List returned %+v, first %+v", again, entries)
			}
			after := snapshot(t, dir)
			if len(after) != len(before) {
				t.Fatalf("reading the store changed its directory: %d files, then %d", len(before), len(after))
			}
			for name, info := range before {
				if now, ok := after[name]; !ok || !os.SameFile(info, now) || info.Size() != now.Size() {
					t.Fatalf("reading the store replaced or removed %s", name)
				}
			}
			if now, err := os.ReadFile(filepath.Join(dir, staleManifest)); !bytes.Equal(now, manifest) || os.IsNotExist(err) != os.IsNotExist(manifestErr) {
				t.Fatalf("the stale manifest was touched:\n%swas:\n%s", now, manifest)
			}

			for name := range after {
				if !strings.Contains(name, ".tmp") {
					continue
				}
				if _, ok, _ := store.Get(name); ok || store.Has(name) {
					t.Fatalf("temp file %s is served as a record", name)
				}
				if hash, ok := strings.CutSuffix(name, ".jsonl"); ok && hashPattern.MatchString(hash) {
					t.Fatalf("temp file %s has an artifact's name", name)
				}
			}
		})
	}
}

// TestStoreListMatchesGet is List's defining property: reading only the front
// of each artifact, it names exactly the entries a full decode of every
// artifact would. The records carry awkward names and meta, meta and extra
// present or absent, and every third artifact is re-written by hand with its
// keys in another order — result first, so the identity sits behind the bulk
// of the line.
func TestStoreListMatchesGet(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	awkward := []string{
		"plain", "", " ", "sp ace", `q"uote`, `back\slash`, "</script>&amp;", "tab\there", "new\nline",
		"naïve/✓/日本", "\u2028", `{"name":"decoy","hash":"0000000000000000"}`, `"result":`, strings.Repeat("long", 300),
	}
	pick := func() string { return awkward[rng.Intn(len(awkward))] }
	result := &sim.Result{Events: 12345, FlowsTotal: 7, PauseTimeFraction: map[string]float64{`"name"`: 0.5}}
	var hashes []string
	for i := 0; i < 90; i++ {
		var meta map[string]string
		if n := rng.Intn(4); n > 0 {
			meta = map[string]string{}
			for k := 0; k < n-1; k++ { // n == 1: present but empty, which Put omits
				meta[pick()] = pick()
			}
		}
		rec := fakeRecord(fmt.Sprintf("%s/%d", pick(), i), meta)
		if rng.Intn(2) == 0 {
			rec.Extra = map[string]float64{pick(): rng.Float64()}
		}
		if rng.Intn(3) > 0 {
			rec.Result = result
		}
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, rec.Hash)
		if i%3 != 0 {
			continue
		}
		// Re-write the artifact with result first and the rest shuffled.
		path := filepath.Join(dir, rec.Hash+".jsonl")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(blob, &fields); err != nil {
			t.Fatal(err)
		}
		keys := []string{"name", "hash", "scheme", "seed", "meta", "extra"}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		line := []byte(`{ "result" : ` + string(fields["result"]))
		for _, k := range keys {
			if v, ok := fields[k]; ok {
				line = append(line, fmt.Sprintf(",\t%q: %s", k, v)...)
			}
		}
		if err := os.WriteFile(path, append(line, "}\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want []ManifestEntry
	for _, hash := range hashes {
		rec, ok, err := store.Get(hash)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", hash, ok, err)
		}
		want = append(want, ManifestEntry{Hash: rec.Hash, Name: rec.Name, Scheme: rec.Scheme, Meta: rec.Meta})
	}
	want = MergeManifests(want)
	if got := mustList(t, store); !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("List and Get disagree at entry %d of %d/%d:\n%+v\nwant\n%+v", i, len(got), len(want), got[min(i, len(got)-1)], want[i])
			}
		}
		t.Fatalf("List returned %d entries, Get built %d", len(got), len(want))
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
// end: two stores (a coordinator's and a worker's) with overlapping work and
// leftovers on both sides — a half-written index line from an older binary
// here, an artifact that vanished there — must merge into exactly the set of
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
	if err := os.WriteFile(filepath.Join(dirA, staleManifest), []byte(`{"hash":"feed`), 0o644); err != nil {
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

// TestStoreRefusesMalformedHashes: a hash arrives from URL path segments and
// fleet peers, and anything but 16 hex digits must name no file — not one
// outside the store, not a temp file inside it.
func TestStoreRefusesMalformedHashes(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "store")
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	outside := fakeRecord("j/outside", nil)
	blob, err := json.Marshal(outside)
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	for _, path := range []string{filepath.Join(root, "secret.jsonl"), filepath.Join(root, "a", "x.jsonl"), filepath.Join(dir, ".hidden.jsonl")} {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []string{"../x", "../../secret", ".hidden", "", outside.Hash + "/", strings.ToUpper(outside.Hash)} {
		if line, ok, err := store.Read(h); line != nil || ok || err != nil {
			t.Fatalf("Read(%q) = %q, %v, %v, want no such artifact", h, line, ok, err)
		}
		if rec, ok, err := store.Get(h); rec != nil || ok || err != nil {
			t.Fatalf("Get(%q) = %v, %v, %v, want no such artifact", h, rec, ok, err)
		}
		if store.Has(h) {
			t.Fatalf("Has(%q) = true", h)
		}
		bad := *outside
		bad.Hash = h
		if err := store.Put(&bad); err == nil {
			t.Fatalf("Put accepted a record with hash %q", h)
		}
	}
	if entries := mustList(t, store); len(entries) != 0 {
		t.Fatalf("List names files that are not artifacts: %+v", entries)
	}
}

// TestStoreReadServesOneLine: Read's bytes are written into JSONL streams
// unparsed, so an artifact holding more than its one line is refused whole.
func TestStoreReadServesOneLine(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := fakeRecord("j/twice", nil)
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	line, ok, err := store.Read(rec.Hash)
	if err != nil || !ok {
		t.Fatalf("Read = %v, %v", ok, err)
	}
	for _, blob := range [][]byte{append(line[:len(line):len(line)], line...), append([]byte("\n"), line...)} {
		if err := os.WriteFile(filepath.Join(dir, rec.Hash+".jsonl"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := store.Read(rec.Hash); err == nil || ok || got != nil {
			t.Fatalf("Read of %q = %q, %v, %v, want an error", blob, got, ok, err)
		}
	}
}
