package memostore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzChunkReplay corrupts a chunk of valid records — overwriting,
// truncating or appending fuzzer bytes at a fuzzer-chosen offset — and
// replays it. Open, Get and a reopen must never panic or fail,
// and every value a Get returns must be one that was Put for its key:
// the CRC rules out serving a torn or overwritten record.
func FuzzChunkReplay(f *testing.F) {
	f.Add(uint8(0), uint16(45), []byte("garbage"))
	f.Add(uint8(0), uint16(36), []byte{0xff, 0xff, 0xff, 0xff, 0x07})
	f.Add(uint8(1), uint16(60), []byte{})
	f.Add(uint8(2), uint16(0), append(magic[:], bytes.Repeat([]byte{1}, 40)...))
	f.Fuzz(func(t *testing.T, mode uint8, at uint16, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		put := map[Key][]string{}
		for i, v := range []string{"alpha", "beta", "gamma", "alpha, re-put"} {
			k := keyOf(fmt.Sprint(i % 3))
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			put[k] = append(put[k], v)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, chunkName(0))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := int(at) % (len(raw) + 1)
		switch mode % 3 {
		case 0: // overwrite in place, extending the file past its end
			var tail []byte
			if end := off + len(data); end < len(raw) {
				tail = raw[end:]
			}
			raw = append(append(raw[:off:off], data...), tail...)
		case 1:
			raw = raw[:off]
		case 2:
			raw = append(raw, data...)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		check := func(s *Store, stage string) {
			for k, vals := range put {
				v, ok, err := s.Get(k)
				if err != nil {
					t.Fatalf("%s: Get: %v", stage, err)
				}
				if !ok {
					continue
				}
				found := false
				for _, want := range vals {
					found = found || string(v) == want
				}
				if !found {
					t.Fatalf("%s: Get returned %q, never Put for that key (put %q)", stage, v, vals)
				}
			}
		}
		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(s, "open")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(s, "reopen")
	})
}
