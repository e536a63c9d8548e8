// Package memostore is a persistent content-addressed memo: a chunked
// on-disk append-log mapping canonical SHA-256 keys to byte values,
// built from the standard library only. It backs the design-space
// explorer's measurement/sweep memo and the lppartd result cache, so a
// restarted process (or another process opening the directory
// read-only) answers previously-computed requests without recomputing
// them. A read-only store indexes the records present when it opens and
// never sees later appends; reopen it to pick them up.
//
// On-disk format: a directory of chunk files named chunk-NNNNNN.log,
// each a sequence of records
//
//	magic   [4]byte  "lpm1"
//	key     [32]byte SHA-256 of the canonical request encoding
//	vlen    uvarint  value length in bytes
//	value   [vlen]byte
//	crc     [4]byte  little-endian IEEE CRC-32 over key+value
//
// Appends go to the highest-numbered chunk and rotate to a fresh chunk
// past Options.ChunkBytes. Writers re-put a key by appending a newer
// record; scan order (chunk number, then offset) makes the last record
// win; the superseded records stay on disk. A torn tail — a record cut
// short by a crash — is detected on open, counted in Skipped, and never
// scanned past; the opener starts a fresh chunk, so a corrupted tail can
// only lose the records after the tear, never the store.
package memostore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

var magic = [4]byte{'l', 'p', 'm', '1'}

// Key is a canonical SHA-256 content address.
type Key = [32]byte

// Options configures Open.
type Options struct {
	// ReadOnly opens the store for Get only: no lock is required, no
	// chunk is created, and Put returns ErrReadOnly. Several processes
	// may share a directory read-only while one writer appends.
	ReadOnly bool
	// ChunkBytes rotates the append chunk past this size; <= 0 selects
	// 4 MiB.
	ChunkBytes int64
}

// ErrReadOnly is returned by Put on a read-only store.
var ErrReadOnly = errors.New("memostore: store is read-only")

// ErrClosed is returned by Get and Put once Close has run;
// a closed store touches no files.
var ErrClosed = errors.New("memostore: store is closed")

// loc addresses one record's value bytes inside a chunk.
type loc struct {
	chunk int // index into Store.chunks
	off   int64
	vlen  int
}

// Store is a persistent content-addressed memo. Safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	readOnly bool
	maxChunk int64

	chunks []*os.File // read handles, in scan (chunk-number) order
	names  []string
	active *os.File // append handle (nil when read-only)
	actLen int64

	index   map[Key]loc
	skipped int64
	closed  bool
}

// chunkName formats the n-th chunk's file name.
func chunkName(n int) string { return fmt.Sprintf("chunk-%06d.log", n) }

// Open opens (or creates) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = 4 << 20
	}
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memostore: %w", err)
		}
	}
	s := &Store{
		dir:      dir,
		readOnly: opts.ReadOnly,
		maxChunk: opts.ChunkBytes,
		index:    make(map[Key]loc),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if opts.ReadOnly && os.IsNotExist(err) {
			return s, nil // empty read-only view of a not-yet-created dir
		}
		return nil, fmt.Errorf("memostore: %w", err)
	}
	var names []string
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "chunk-%06d.log", &n); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	torn := false
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("memostore: %w", err)
		}
		ci := len(s.chunks)
		s.chunks = append(s.chunks, f)
		s.names = append(s.names, name)
		tornHere, err := s.scanChunk(ci, f)
		if err != nil {
			s.Close() //lint:err best-effort cleanup of a failing open
			return nil, err
		}
		torn = torn || tornHere
	}
	if !opts.ReadOnly {
		if err := s.openActive(torn); err != nil {
			s.Close() //lint:err best-effort cleanup of a failing open
			return nil, err
		}
	}
	return s, nil
}

// scanChunk replays one chunk into the index. It returns whether the
// chunk ends in a torn or corrupt record (counted in skipped); scanning
// stops at the first bad record since nothing after it can be trusted.
func (s *Store) scanChunk(ci int, f *os.File) (torn bool, err error) {
	st, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("memostore: %w", err)
	}
	r := &countReader{r: f}
	br := &byteReader{r: r}
	for {
		var m [4]byte
		if _, err := io.ReadFull(r, m[:]); err != nil {
			if err == io.EOF {
				return false, nil // clean end
			}
			s.skipped++
			return true, nil
		}
		if m != magic {
			s.skipped++
			return true, nil
		}
		var key Key
		if _, err := io.ReadFull(r, key[:]); err != nil {
			s.skipped++
			return true, nil
		}
		// A length past the chunk's end is a torn or corrupt record:
		// reject it before allocating the value buffer.
		vlen, err := binary.ReadUvarint(br)
		if err != nil || vlen > uint64(st.Size()-r.n) {
			s.skipped++
			return true, nil
		}
		val := make([]byte, vlen)
		valOff := r.n
		if _, err := io.ReadFull(r, val); err != nil {
			s.skipped++
			return true, nil
		}
		var crcb [4]byte
		if _, err := io.ReadFull(r, crcb[:]); err != nil {
			s.skipped++
			return true, nil
		}
		c := crc32.NewIEEE()
		c.Write(key[:])
		c.Write(val)
		if binary.LittleEndian.Uint32(crcb[:]) != c.Sum32() {
			s.skipped++
			return true, nil
		}
		s.index[key] = loc{chunk: ci, off: valOff, vlen: int(vlen)}
	}
}

// openActive prepares the append chunk: the highest existing chunk when
// its tail is clean and under the rotation bound, a fresh chunk
// otherwise (in particular after a torn tail — never append past a
// tear).
func (s *Store) openActive(torn bool) error {
	next := 0
	if n := len(s.names); n > 0 {
		fmt.Sscanf(s.names[n-1], "chunk-%06d.log", &next) //lint:err a non-matching name leaves next at its zero default
		next++
		if !torn {
			last := s.names[n-1]
			st, err := os.Stat(filepath.Join(s.dir, last))
			if err == nil && st.Size() < s.maxChunk {
				f, err := os.OpenFile(filepath.Join(s.dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return fmt.Errorf("memostore: %w", err)
				}
				s.active = f
				s.actLen = st.Size()
				return nil
			}
		}
	}
	return s.newChunk(next)
}

// newChunk creates chunk n and makes it both scannable and active.
func (s *Store) newChunk(n int) error {
	name := chunkName(n)
	path := filepath.Join(s.dir, name)
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("memostore: %w", err)
	}
	r, err := os.Open(path)
	if err != nil {
		w.Close() //lint:err best-effort cleanup, the open error propagates
		return fmt.Errorf("memostore: %w", err)
	}
	if s.active != nil {
		s.active.Close() //lint:err best-effort close of the replaced chunk
	}
	s.active = w
	s.actLen = 0
	s.chunks = append(s.chunks, r)
	s.names = append(s.names, name)
	return nil
}

// Get returns the newest value stored for key.
func (s *Store) Get(key Key) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	l, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	val := make([]byte, l.vlen)
	if _, err := s.chunks[l.chunk].ReadAt(val, l.off); err != nil {
		return nil, false, fmt.Errorf("memostore: read %s: %w", s.names[l.chunk], err)
	}
	return val, true, nil
}

// Put appends a record for key; a later Get returns val. Re-putting a
// key supersedes the previous record.
func (s *Store) Put(key Key, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.readOnly {
		return ErrReadOnly
	}
	if s.actLen >= s.maxChunk {
		var next int
		fmt.Sscanf(s.names[len(s.names)-1], "chunk-%06d.log", &next) //lint:err a non-matching name leaves next at its zero default
		if err := s.newChunk(next + 1); err != nil {
			return err
		}
	}
	var hdr [4 + 32 + binary.MaxVarintLen64]byte
	n := copy(hdr[:], magic[:])
	n += copy(hdr[n:], key[:])
	n += binary.PutUvarint(hdr[n:], uint64(len(val)))
	c := crc32.NewIEEE()
	c.Write(key[:])
	c.Write(val)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], c.Sum32())

	rec := make([]byte, 0, n+len(val)+4)
	rec = append(rec, hdr[:n]...)
	rec = append(rec, val...)
	rec = append(rec, crcb[:]...)
	if _, err := s.active.Write(rec); err != nil {
		return fmt.Errorf("memostore: append: %w", err)
	}
	valOff := s.actLen + int64(n)
	s.actLen += int64(len(rec))
	s.index[key] = loc{chunk: len(s.chunks) - 1, off: valOff, vlen: len(val)}
	return nil
}

// Len returns the number of distinct keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Skipped returns how many corrupt or torn records open-time scanning
// detected and skipped.
func (s *Store) Skipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Close releases all file handles; Get and Put return ErrClosed
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for _, f := range s.chunks {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.active != nil {
		if err := s.active.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.chunks, s.active = nil, nil
	return first
}

// countReader counts consumed bytes so scanChunk knows record offsets.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// byteReader adapts countReader for binary.ReadUvarint without
// double-buffering (a bufio.Reader would desynchronize the count).
type byteReader struct{ r *countReader }

func (b *byteReader) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}
