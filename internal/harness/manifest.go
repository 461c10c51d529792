package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// ManifestEntry is a job's identity as its artifact declares it: the content
// hash that keys the file, the name, scheme and meta the hash covers, and the
// sim.ModelVersion that computed the record (0 for artifacts written before
// records carried it). Record embeds it, so consumers (the service tier,
// bfcctl, the fleet manifest) enumerate completed work without decoding
// every multi-megabyte record.
type ManifestEntry struct {
	Hash   string            `json:"hash"`
	Name   string            `json:"name"`
	Scheme string            `json:"scheme"`
	Model  int               `json:"model"`
	Meta   map[string]string `json:"meta,omitempty"`
}

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

// List enumerates the store's completed artifacts, sorted by job name. There
// is no index to fall out of step with the directory: each "<hash>.jsonl" is
// opened and its identity read off the front of its line (readEntry), so the
// listing is what the directory holds at that moment. An artifact that does
// not open, does not start with its identity, carries another hash than its
// name, or lacks the newline Put writes last (truncated, empty) is left out;
// Read tells whoever asks for the record what is wrong with it.
func (s *Store) List() ([]ManifestEntry, error) {
	dirEntries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("harness: listing store: %w", err)
	}
	var entries []ManifestEntry
	for _, de := range dirEntries {
		hash, isArtifact := strings.CutSuffix(de.Name(), ".jsonl")
		path, ok := s.path(hash)
		if !isArtifact || !ok || de.IsDir() {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		if e, ok := readEntry(f); ok && e.Hash == hash {
			entries = append(entries, e)
		}
		f.Close()
	}
	return MergeManifests(entries), nil // sorts; file names are distinct hashes already
}

// readEntry reads a record's identity from the front of its JSON line: it
// walks the object's keys until it holds every ManifestEntry field, which
// Record declares — and Put therefore writes — ahead of the result that is
// nearly all of the line, so a listing reads a few hundred bytes per artifact.
// A record without meta or model, or with its keys in another order, is
// walked to its end: slower, same entry. Then it looks at the line's last
// byte.
func readEntry(r io.ReadSeeker) (e ManifestEntry, ok bool) {
	dec := json.NewDecoder(r)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return e, false
	}
	wanted := map[string]any{"hash": &e.Hash, "name": &e.Name, "scheme": &e.Scheme, "model": &e.Model, "meta": &e.Meta}
	for len(wanted) > 0 && dec.More() {
		key, err := dec.Token()
		if err != nil {
			return e, false
		}
		name, _ := key.(string)
		into, isWanted := wanted[name]
		if !isWanted {
			into = new(json.RawMessage) // skipped, but still checked as JSON
		}
		if err := dec.Decode(into); err != nil {
			return e, false
		}
		delete(wanted, name)
	}
	var last [1]byte
	if _, err := r.Seek(-1, io.SeekEnd); err == nil {
		r.Read(last[:]) // a failed read leaves last zero: not a newline
	}
	return e, last[0] == '\n' && e.Name != ""
}
