// Package store is the content-addressed, disk-backed artifact store
// behind the engine's warm-boot path. The artifacts it holds — tailored
// mechanisms and the compare workbench's results — are
// the ones whose load beats recomputation, and each is a
// deterministic, total function of its cache key, so a byte-exact
// copy persisted once is valid forever: a restarted server loads
// instead of re-solving.
//
// Layout: an entry for (class, key) lives at
//
//	root/<class>/<hh>/<sha256(class \x00 key)>.art
//
// where <hh> is the first hex byte of the digest (256-way fan-out so
// directories stay small). The file is a versioned envelope — magic,
// format version, class, key, payload, SHA-256 checksum over all of
// them — so Get can verify both integrity and identity (a file moved
// or renamed to the wrong address is detected, not trusted).
//
// Failure policy: the store is an accelerator, never an authority.
// Get reports a miss for anything it cannot fully verify — wrong
// magic, class/key mismatch, bad checksum, truncated file — and moves
// the offending file into root/quarantine/ so the next boot does not
// trip on it again; the caller falls back to solving and the
// write-back repairs the entry. An entry written under another
// FormatVersion is not corrupt, just stale: it is a plain miss, left
// in place for the write-back to overwrite. I/O errors on the
// read path are likewise misses (counted, not fatal). Put is atomic
// per entry: temp file, fsync, rename.
//
// Durability: the engine calls Put behind the response, from one
// writer goroutine per engine, and engine.Close waits for every
// queued Put. A graceful stop therefore leaves every computed artifact
// on disk. A crash can lose the artifacts answered in its last
// moments, whose Puts had not run yet; the next boot misses on them
// and re-solves, so nothing wrong is ever served.
//
// Encodings are deterministic and exact — rationals are serialized as
// canonical big.Rat strings (always lowest terms), integers in
// decimal, no floats anywhere on disk — so load(save(x)) == x holds
// identically on rationals and the package stays policed in
// floatflow's exact-package table. See codec.go.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// FormatVersion is the on-disk envelope version. Bump it when the
// envelope or any codec changes incompatibly, or when the artifact a
// key denotes changes; readers treat files from other versions as
// plain misses (the artifact is re-solved and re-written in the
// current format), never as corruption.
//
// Version 2: tied LP optima resolve to the canonical lexicographically
// smallest optimal point, so tailored artifacts of tied keys changed
// bytes.
//
// Version 3: a tailored artifact inside Theorem 1's hypotheses is the
// consumer's optimal interaction with G_{n,α} (G·T° for minimax, G and
// the Bayes-optimal remap for Bayesian), no longer the §2.5 LP's
// canonical optimum, so tailored bytes changed on most keys. Losses
// did not.
const FormatVersion = 3

// errStale reports an envelope written under another FormatVersion.
var errStale = errors.New("store: envelope from another format version")

// magic identifies a minimaxdp artifact envelope.
var magic = [4]byte{'M', 'D', 'P', 'A'}

const (
	quarantineDir = "quarantine"
	entrySuffix   = ".art"
)

// Stats is a point-in-time snapshot of the store's counters. Hits and
// Misses partition Get calls (a verification failure is a miss);
// Corrupt counts entries quarantined by Get; WriteErrors counts
// failed Puts.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	Corrupt     uint64 `json:"corrupt"`
}

// Store is a content-addressed artifact store rooted at one
// directory. All methods are safe for concurrent use; concurrent Puts
// of the same (class, key) are benign (deterministic artifacts make
// last-writer-wins a no-op) because each Put renames a unique temp
// file into place.
type Store struct {
	root string

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	writeErrors atomic.Uint64
	corrupt     atomic.Uint64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty root directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Corrupt:     s.corrupt.Load(),
	}
}

// checkClass rejects class names that would not map to a safe
// directory name. Classes are producer-controlled constants
// ("tailored", "compares"), so this is a guard against
// programming errors, not an input sanitizer.
func checkClass(class string) error {
	if class == "" || class == quarantineDir {
		return fmt.Errorf("store: invalid class %q", class)
	}
	for _, c := range class {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return fmt.Errorf("store: invalid class %q (want [a-z0-9-]+)", class)
		}
	}
	return nil
}

// entryPath derives the content address of (class, key): the entry
// directory and the full file path.
func (s *Store) entryPath(class, key string) (dir, path string) {
	sum := sha256.Sum256(addressBytes(class, key))
	hexDigest := fmt.Sprintf("%x", sum)
	dir = filepath.Join(s.root, class, hexDigest[:2])
	return dir, filepath.Join(dir, hexDigest+entrySuffix)
}

// addressBytes is the digest input for the content address: class and
// key, NUL-separated (neither may contain NUL; keys are engine cache
// keys built from decimals and RatStrings).
func addressBytes(class, key string) []byte {
	b := make([]byte, 0, len(class)+1+len(key))
	b = append(b, class...)
	b = append(b, 0)
	b = append(b, key...)
	return b
}

// encodeEnvelope frames a payload: magic, version, lengths, class,
// key, payload, then SHA-256 over everything before the checksum.
func encodeEnvelope(class, key string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(payload) + len(class) + len(key) + 64)
	buf.Write(magic[:])
	var hdr [16]byte
	binary.BigEndian.PutUint16(hdr[0:2], FormatVersion)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(class)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(key)))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	buf.Write(hdr[:])
	buf.WriteString(class)
	buf.WriteString(key)
	buf.Write(payload)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes()
}

// decodeEnvelope verifies an envelope addressed as (class, key) and
// returns its payload. Any verification failure is an error; the
// caller decides whether to quarantine.
func decodeEnvelope(class, key string, data []byte) ([]byte, error) {
	const headerLen = 4 + 16
	if len(data) < headerLen+sha256.Size {
		return nil, fmt.Errorf("store: envelope truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return nil, errors.New("store: bad magic")
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != FormatVersion {
		return nil, fmt.Errorf("%w: %d (want %d)", errStale, v, FormatVersion)
	}
	classLen := int(binary.BigEndian.Uint16(data[6:8]))
	keyLen := int(binary.BigEndian.Uint32(data[8:12]))
	payloadLen := binary.BigEndian.Uint64(data[12:20])
	want := uint64(headerLen) + uint64(classLen) + uint64(keyLen) + payloadLen + sha256.Size
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("store: envelope length %d, header implies %d", len(data), want)
	}
	body := data[:len(data)-sha256.Size]
	var sum [sha256.Size]byte
	copy(sum[:], data[len(data)-sha256.Size:])
	if sha256.Sum256(body) != sum {
		return nil, errors.New("store: checksum mismatch")
	}
	gotClass := string(data[headerLen : headerLen+classLen])
	gotKey := string(data[headerLen+classLen : headerLen+classLen+keyLen])
	if gotClass != class || gotKey != key {
		return nil, fmt.Errorf("store: entry addressed as (%s, %q) holds (%s, %q)",
			class, key, gotClass, gotKey)
	}
	return data[headerLen+classLen+keyLen : len(data)-sha256.Size], nil
}

// Get loads the payload stored for (class, key). ok is false on a
// miss — absent entry, an entry from another format version (left for
// the write-back to overwrite), or an entry that failed any other
// verification (the file is then quarantined). Get never returns an error to the
// caller: the store's contract is "serve a verified artifact or get
// out of the way", so every failure mode degrades to a miss and the
// caller re-solves.
func (s *Store) Get(class, key string) (payload []byte, ok bool) {
	if err := checkClass(class); err != nil {
		s.misses.Add(1)
		return nil, false
	}
	_, path := s.entryPath(class, key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err = decodeEnvelope(class, key, data)
	if err != nil {
		if !errors.Is(err, errStale) {
			s.quarantine(path)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put persists payload as the artifact for (class, key), atomically
// (temp file + fsync + rename). Errors are returned for the caller's
// counters but are safe to ignore: a failed write only costs a future
// re-solve.
func (s *Store) Put(class, key string, payload []byte) error {
	if err := checkClass(class); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	dir, path := s.entryPath(class, key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		if rmErr := os.Remove(tmp); rmErr != nil && !os.IsNotExist(rmErr) {
			s.writeErrors.Add(1)
		}
	}
	env := encodeEnvelope(class, key, payload)
	if _, err := f.Write(env); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		cleanup()
		s.writeErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	if err := f.Sync(); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		cleanup()
		s.writeErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		s.writeErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		cleanup()
		s.writeErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// quarantine moves a failed entry out of the addressable tree so it
// is inspected once, not re-read on every boot. If even the move
// fails the file is deleted; quarantine itself never fails the read
// path.
func (s *Store) quarantine(path string) {
	s.corrupt.Add(1)
	dst := filepath.Join(s.root, quarantineDir, filepath.Base(path)+".corrupt")
	if err := os.Rename(path, dst); err != nil {
		if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			// Unremovable corrupt entry: nothing left to do on this
			// path; subsequent Gets keep treating it as a miss.
			return
		}
	}
}
