package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// manifestName is the store's index file: one JSON line per completed
// artifact, appended by Put and compacted by List.
const manifestName = "MANIFEST.jsonl"

// artifactPattern matches artifact file names ("<16-hex-hash>.jsonl"),
// distinguishing them from the manifest, from Put's and the manifest
// rewrite's temp files, and from anything else kept in a results directory.
var artifactPattern = regexp.MustCompile(`^[0-9a-f]{16}\.jsonl$`)

// ManifestEntry indexes one completed artifact: the content hash that keys
// its file plus the job's wire-form identity, so consumers (the service tier,
// -resume, bfcctl) can enumerate completed work without decoding every
// multi-megabyte record or re-hashing every job spec.
type ManifestEntry struct {
	Hash   string            `json:"hash"`
	Name   string            `json:"name"`
	Scheme string            `json:"scheme"`
	Meta   map[string]string `json:"meta,omitempty"`
}

// Spec returns the entry's job wire form.
func (e ManifestEntry) Spec() JobSpec {
	return JobSpec{Name: e.Name, Scheme: e.Scheme, Meta: e.Meta}
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }

// MergeManifests unions manifest entry lists into one view of completed work:
// entries are deduplicated by hash (the first list containing a hash wins, so
// callers put the most authoritative store first) and returned sorted by job
// name, matching List's ordering. The fleet tier uses it to present the union
// of the coordinator's store and every worker's store as a single fleet-wide
// manifest.
func MergeManifests(lists ...[]ManifestEntry) []ManifestEntry {
	seen := map[string]bool{}
	var out []ManifestEntry
	for _, list := range lists {
		for _, e := range list {
			if e.Hash == "" || seen[e.Hash] {
				continue
			}
			seen[e.Hash] = true
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// appendManifest appends one entry line to the manifest. Appends are
// serialized by the store mutex; the record's artifact is already renamed
// into place, so a crash between the rename and this append merely leaves an
// unindexed artifact for List to recover.
func (s *Store) appendManifest(rec *Record) error {
	line, err := json.Marshal(ManifestEntry{
		Hash: rec.Hash, Name: rec.Name, Scheme: rec.Scheme, Meta: rec.Meta,
	})
	if err != nil {
		return fmt.Errorf("harness: encoding manifest entry %q: %w", rec.Name, err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(s.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("harness: opening manifest: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return fmt.Errorf("harness: appending manifest entry %q: %w", rec.Name, err)
	}
	return f.Close()
}

// List enumerates the store's completed artifacts, sorted by job name. It
// reads the manifest and reconciles it against the artifact files, repairing
// every divergence a crash can leave behind: a truncated or corrupt trailing
// line (interrupted append) is dropped, an artifact missing from the manifest
// (crash between artifact rename and manifest append, or a store written
// before manifests existed) is recovered by decoding the record, and an entry
// whose artifact has disappeared is discarded. When any repair was needed the
// manifest is rewritten atomically, so the next List is pure index reads.
func (s *Store) List() ([]ManifestEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	entries, dirty, err := s.readManifest()
	if err != nil {
		return nil, err
	}

	byHash := make(map[string]int, len(entries))
	for i, e := range entries {
		byHash[e.Hash] = i
	}

	dirEntries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("harness: listing store: %w", err)
	}
	onDisk := map[string]bool{}
	for _, de := range dirEntries {
		name := de.Name()
		if de.IsDir() || !artifactPattern.MatchString(name) {
			continue
		}
		hash := strings.TrimSuffix(name, ".jsonl")
		onDisk[hash] = true
		if _, ok := byHash[hash]; ok {
			continue
		}
		// Unindexed artifact: recover its identity from the record itself.
		rec, ok, err := s.Get(hash)
		if err != nil || !ok {
			// Unreadable artifacts are left alone (Get would surface the
			// error to whoever asks for the record); they just stay
			// unindexed.
			continue
		}
		byHash[hash] = len(entries)
		entries = append(entries, ManifestEntry{
			Hash: hash, Name: rec.Name, Scheme: rec.Scheme, Meta: rec.Meta,
		})
		dirty = true
	}

	kept := entries[:0]
	for _, e := range entries {
		if onDisk[e.Hash] {
			kept = append(kept, e)
		} else {
			dirty = true
		}
	}
	entries = kept

	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	if dirty {
		if err := s.rewriteManifest(entries); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// readManifest parses the manifest, tolerating damage: corrupt or duplicate
// lines are skipped and reported as dirty so List compacts them away.
func (s *Store) readManifest() (entries []ManifestEntry, dirty bool, err error) {
	f, err := os.Open(s.manifestPath())
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("harness: opening manifest: %w", err)
	}
	defer f.Close()
	seen := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e ManifestEntry
		if json.Unmarshal([]byte(line), &e) != nil || e.Hash == "" || e.Name == "" {
			dirty = true // interrupted append left a partial or garbled line
			continue
		}
		if i, dup := seen[e.Hash]; dup {
			entries[i] = e // re-put of the same artifact: last entry wins
			dirty = true
			continue
		}
		seen[e.Hash] = len(entries)
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, false, fmt.Errorf("harness: reading manifest: %w", err)
	}
	return entries, dirty, nil
}

// rewriteManifest atomically replaces the manifest with the given entries.
func (s *Store) rewriteManifest(entries []ManifestEntry) error {
	var sb strings.Builder
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("harness: encoding manifest entry %q: %w", e.Name, err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(s.dir, ".manifest.tmp*")
	if err != nil {
		return fmt.Errorf("harness: rewriting manifest: %w", err)
	}
	if _, err := tmp.WriteString(sb.String()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: rewriting manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: rewriting manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.manifestPath()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: rewriting manifest: %w", err)
	}
	return nil
}
