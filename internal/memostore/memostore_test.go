package memostore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func keyOf(s string) Key { return sha256.Sum256([]byte(s)) }

func TestPutGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		if err := s.Put(keyOf(fmt.Sprint(i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok, err := s.Get(keyOf(fmt.Sprint(i)))
		if err != nil || !ok {
			t.Fatalf("Get %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("value-%d", i); string(v) != want {
			t.Fatalf("Get %d = %q, want %q", i, v, want)
		}
	}
	if _, ok, _ := s.Get(keyOf("absent")); ok {
		t.Fatal("Get of absent key reported ok")
	}
	// Overwrite: last Put wins.
	if err := s.Put(keyOf("7"), []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get(keyOf("7")); string(v) != "newer" {
		t.Fatalf("after re-put, Get = %q", v)
	}
	if s.Len() != 100 {
		t.Fatalf("re-put changed Len to %d", s.Len())
	}
}

func TestReopenRestoresIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(keyOf(fmt.Sprint(i)), bytes.Repeat([]byte{byte(i)}, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Put(keyOf("3"), []byte("superseded-then-rewritten"))
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reopened Len = %d, want 10", s2.Len())
	}
	if v, _, _ := s2.Get(keyOf("3")); string(v) != "superseded-then-rewritten" {
		t.Fatalf("newest record did not win after reopen: %q", v)
	}
	if v, _, _ := s2.Get(keyOf("5")); !bytes.Equal(v, bytes.Repeat([]byte{5}, 6)) {
		t.Fatalf("Get 5 after reopen = %v", v)
	}
	if s2.Skipped() != 0 {
		t.Fatalf("clean reopen skipped %d records", s2.Skipped())
	}
}

// TestTruncatedTailSkippedOnOpen is the corruption-handling contract:
// a log whose last record was cut short by a crash must be detected,
// the torn record skipped (and counted), and the store must still open
// and serve every record before the tear — and accept new Puts that
// survive a further reopen.
func TestTruncatedTailSkippedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(keyOf(fmt.Sprint(i)), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the tail: chop 3 bytes off the last record's CRC.
	path := filepath.Join(dir, chunkName(0))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("store failed to open over a torn tail: %v", err)
	}
	if s2.Skipped() != 1 {
		t.Fatalf("Skipped = %d, want 1", s2.Skipped())
	}
	if s2.Len() != 4 {
		t.Fatalf("Len after tear = %d, want 4 surviving records", s2.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok, err := s2.Get(keyOf(fmt.Sprint(i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("surviving record %d unreadable: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if _, ok, _ := s2.Get(keyOf("4")); ok {
		t.Fatal("torn record served as if intact")
	}
	// New appends must go to a fresh chunk, never past the tear.
	if err := s2.Put(keyOf("after-tear"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, ok, _ := s3.Get(keyOf("after-tear")); !ok || string(v) != "fresh" {
		t.Fatalf("post-tear append lost on reopen: %q ok=%v", v, ok)
	}
	if s3.Len() != 5 {
		t.Fatalf("Len after reopen = %d, want 5", s3.Len())
	}
}

// TestCorruptMiddleStopsScan: flipping a byte inside a record breaks its
// CRC; the scan must stop at the first bad record (everything after it
// in that chunk is untrusted) but records before it survive.
func TestCorruptMiddleStopsScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < 4; i++ {
		if err := s.Put(keyOf(fmt.Sprint(i)), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, s.actLen)
	}
	s.Close()

	// Flip one payload byte inside record 1 (bytes [offsets[0], offsets[1])).
	path := filepath.Join(dir, chunkName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[0]+40] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over mid-log corruption: %v", err)
	}
	defer s2.Close()
	if s2.Skipped() == 0 {
		t.Fatal("corruption not counted")
	}
	if v, ok, _ := s2.Get(keyOf("0")); !ok || string(v) != "payload-0" {
		t.Fatalf("record before corruption lost: %q ok=%v", v, ok)
	}
	if _, ok, _ := s2.Get(keyOf("1")); ok {
		t.Fatal("corrupt record served")
	}
}

func TestChunkRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0xAB}, 100)
	for i := 0; i < 20; i++ {
		if err := s.Put(keyOf(fmt.Sprint(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	entries, _ := os.ReadDir(dir)
	if len(entries) < 3 {
		t.Fatalf("expected multiple chunks, found %d files", len(entries))
	}
	s2, err := Open(dir, Options{ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("Len across chunks = %d, want 20", s2.Len())
	}
	for i := 0; i < 20; i++ {
		if v, ok, _ := s2.Get(keyOf(fmt.Sprint(i))); !ok || !bytes.Equal(v, val) {
			t.Fatalf("record %d lost across rotation", i)
		}
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(keyOf("k"), []byte("v"))
	s.Close()

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if v, ok, _ := ro.Get(keyOf("k")); !ok || string(v) != "v" {
		t.Fatalf("read-only Get = %q ok=%v", v, ok)
	}
	if err := ro.Put(keyOf("k2"), []byte("x")); err != ErrReadOnly {
		t.Fatalf("read-only Put err = %v, want ErrReadOnly", err)
	}
	// A read-only view of a directory that does not exist yet is an
	// empty store, not an error (a reader may start before its writer
	// has created the directory).
	empty, err := Open(filepath.Join(dir, "missing"), Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if empty.Len() != 0 {
		t.Fatal("phantom records in missing dir")
	}

	// A reader is a snapshot: Open indexes the records present then,
	// and a record the still-open writer appends afterwards stays
	// invisible until the reader reopens.
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	snap, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	n := snap.Len()
	if err := w.Put(keyOf("late"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := snap.Get(keyOf("late")); ok || err != nil {
		t.Fatalf("reader saw a record written after it opened: %q ok=%v err=%v", v, ok, err)
	}
	if snap.Len() != n {
		t.Fatalf("reader Len %d after a later write, want %d", snap.Len(), n)
	}
	if v, ok, _ := snap.Get(keyOf("k")); !ok || string(v) != "v" {
		t.Fatalf("reader lost its snapshot: Get(k) = %q ok=%v", v, ok)
	}
}

// TestUseAfterClose: Get and Put on a closed store return
// ErrClosed and create, rewrite or remove no file — in particular a Put
// whose append chunk is full must not rotate to a fresh chunk.
func TestUseAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{ChunkBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// One record larger than the chunk bound: the next Put would rotate.
	if err := s.Put(keyOf("k"), bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	listing := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%s:%d ", e.Name(), info.Size())
		}
		return out
	}
	before := listing()
	if _, ok, err := s.Get(keyOf("k")); err != ErrClosed || ok {
		t.Errorf("Get after Close: ok=%v err=%v, want ErrClosed", ok, err)
	}
	if err := s.Put(keyOf("k2"), []byte("v")); err != ErrClosed {
		t.Errorf("Put after Close: err=%v, want ErrClosed", err)
	}
	if after := listing(); after != before {
		t.Errorf("closed store touched files:\nbefore %s\nafter  %s", before, after)
	}
}
