package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store persists one JSONL record per completed job under a results
// directory. Files are keyed by the job's content hash ("<hash>.jsonl", one
// JSON line each), so a rerun of the same job spec lands on the same
// artifact, concurrent workers never interleave writes, and Resume can skip
// completed work with one lookup per job hash. A MANIFEST.jsonl index,
// maintained alongside the artifacts, lets List enumerate completed work
// without decoding records (see manifest.go).
type Store struct {
	dir string
	// mu serializes manifest writes; artifact files need no locking because
	// each lands via its own temp-file rename.
	mu sync.Mutex
}

// NewStore opens (creating if needed) a results directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("harness: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".jsonl")
}

// Put writes the record's artifact atomically (temp file + rename), so an
// interrupted run never leaves a truncated artifact for Resume to trust.
func (s *Store) Put(rec *Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("harness: encoding record %q: %w", rec.Name, err)
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(s.dir, "."+rec.Hash+".tmp*")
	if err != nil {
		return fmt.Errorf("harness: writing record %q: %w", rec.Name, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing record %q: %w", rec.Name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing record %q: %w", rec.Name, err)
	}
	if err := os.Rename(tmp.Name(), s.path(rec.Hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing record %q: %w", rec.Name, err)
	}
	return s.appendManifest(rec)
}

// Has reports whether an artifact exists for the job hash without decoding
// it — the membership probe behind fleet manifest exchange, where a worker
// answers "which of these hashes do you already have" for thousands of hashes
// per query.
func (s *Store) Has(hash string) bool {
	if !artifactPattern.MatchString(hash + ".jsonl") {
		return false
	}
	info, err := os.Stat(s.path(hash))
	return err == nil && info.Mode().IsRegular()
}

// Get loads the record for a job hash; ok is false when no artifact exists.
func (s *Store) Get(hash string) (rec *Record, ok bool, err error) {
	b, err := os.ReadFile(s.path(hash))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("harness: reading record %s: %w", hash, err)
	}
	rec = &Record{}
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, false, fmt.Errorf("harness: decoding record %s: %w", hash, err)
	}
	return rec, true, nil
}
