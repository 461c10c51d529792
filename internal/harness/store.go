package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"
)

// Store persists one JSONL record per completed job under a results
// directory. Files are keyed by the job's content hash ("<hash>.jsonl", one
// JSON line each), so a rerun of the same job lands on the same artifact,
// concurrent workers never interleave writes, and Resume can skip completed
// work with one lookup per job hash. The artifact is the only copy
// of a result: no index is kept beside it (List reads the artifacts).
//
// A Store remembers, per hash, the bytes it last wrote or found valid (see
// Read), so a cache hit on an unchanged artifact costs a file read compared
// in place with those bytes: no parse and no copy.
type Store struct {
	dir string

	mu        sync.Mutex
	checked   map[string][]byte // hash -> artifact bytes Put wrote or Read accepted
	checkedSz int               // sum of len over checked
}

// checkedCap bounds the bytes a Store remembers as checked. Reaching it
// clears the memo; a forgotten artifact costs one more validation.
const checkedCap = 32 << 20

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

// hashPattern is the form of a job content hash (Job.Hash).
var hashPattern = regexp.MustCompile(`^[0-9a-f]{16}$`)

// path is the one conversion from a hash to a file name. Hashes arrive from
// outside the process (URL path segments, fleet queries, records off the
// wire); ok is false for anything else than a content hash, which therefore
// cannot name a file outside the store or a temp file inside it.
func (s *Store) path(hash string) (path string, ok bool) {
	if !hashPattern.MatchString(hash) {
		return "", false
	}
	return filepath.Join(s.dir, hash+".jsonl"), true
}

// Put writes the record's artifact atomically (temp file + rename), so an
// interrupted run never leaves a truncated artifact for Resume to trust.
func (s *Store) Put(rec *Record) error {
	path, ok := s.path(rec.Hash)
	if !ok {
		return fmt.Errorf("harness: record %q has malformed hash %q", rec.Name, rec.Hash)
	}
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing record %q: %w", rec.Name, err)
	}
	s.remember(rec.Hash, b)
	return nil
}

// remember records b as the checked bytes of hash's artifact. The Store owns
// b from here on and shares it read-only: callers pass a slice nobody else
// holds, and Read hands the same slice to every caller that finds it still on
// disk, so nobody may write to it, before or after.
func (s *Store) remember(hash string, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.checked[hash]; ok {
		s.checkedSz -= len(old)
	}
	if s.checked == nil || s.checkedSz+len(b) > checkedCap {
		s.checked, s.checkedSz = map[string][]byte{}, 0
	}
	s.checked[hash] = b
	s.checkedSz += len(b)
}

// memo returns the bytes last remembered for hash (nil if none).
func (s *Store) memo(hash string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checked[hash]
}

// Has reports whether an artifact exists for the job hash without reading
// it — the membership probe behind fleet manifest exchange, where a worker
// answers "which of these hashes do you already have" for thousands of hashes
// per query.
func (s *Store) Has(hash string) bool {
	path, ok := s.path(hash)
	if !ok {
		return false
	}
	info, err := os.Stat(path)
	return err == nil && info.Mode().IsRegular()
}

// Read returns the artifact's bytes for a job hash, as Put wrote them; ok is
// false when no artifact exists. It is the only way bytes leave the store, so
// it is where they are checked: anything but one newline-terminated valid
// JSON line (a truncated, empty or overwritten artifact) is an error. The
// file is read on every call. When it holds exactly the bytes this Store last
// wrote or accepted under the hash, compared chunk by chunk as they are read,
// Read returns those remembered bytes, copying nothing; any other file is read
// whole (os.ReadFile), parsed and, if valid, remembered instead. The verdict
// is therefore the same function of the bytes on disk as a parse on every
// call.
//
// The returned slice is the Store's shared copy (see remember): callers may
// write it out or decode it, never modify it.
func (s *Store) Read(hash string) (line []byte, ok bool, err error) {
	path, ok := s.path(hash)
	if !ok {
		return nil, false, nil
	}
	if memo := s.memo(hash); memo != nil && holds(path, memo) {
		return memo, true, nil
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("harness: reading record %s: %w", hash, err)
	}
	if bytes.IndexByte(b, '\n') != len(b)-1 || !json.Valid(b) {
		return nil, false, fmt.Errorf("harness: artifact %s is not one complete JSON line", hash)
	}
	s.remember(hash, b)
	return b, true, nil
}

// chunkSize is the unit holds compares a file in, so a hit costs the same
// memory whatever the artifact's size.
const chunkSize = 32 << 10

// chunks holds the buffers holds reads through, shared by every Store.
var chunks = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// holds reports whether the file at path holds exactly want: its size is
// len(want) and it reads back equal, chunk by chunk, up to its end. Any
// failure to open or read it is a false, which sends Read to os.ReadFile to
// report it.
func holds(path string, want []byte) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	if info, err := f.Stat(); err != nil || info.Size() != int64(len(want)) {
		return false
	}
	chunk := chunks.Get().(*[chunkSize]byte)
	defer chunks.Put(chunk)
	for off := 0; ; {
		n, err := f.Read(chunk[:])
		if n > len(want)-off || !bytes.Equal(chunk[:n], want[off:off+n]) {
			return false
		}
		off += n
		if err != nil {
			return err == io.EOF && off == len(want)
		}
	}
}

// Get loads the record for a job hash; ok is false when no artifact exists.
func (s *Store) Get(hash string) (rec *Record, ok bool, err error) {
	b, ok, err := s.Read(hash)
	if err != nil || !ok {
		return nil, false, err
	}
	rec = &Record{}
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, false, fmt.Errorf("harness: decoding record %s: %w", hash, err)
	}
	return rec, true, nil
}
