package dse

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
	"lppart/internal/memostore"
	"lppart/internal/system"
)

// storeSequenceDigest is the SHA-256 of TestStoreSequencePinned's full
// log: every key the greedy flow and the explorer look up and write, in
// order, with the SHA-256 of every record written. lppartd's measurement
// leases and its lppartd_measure_ops_total counts follow this sequence,
// and a -store directory written by an earlier build holds these keys
// and bytes, so neither may move.
const storeSequenceDigest = "e18e9241eb0f32f7a8cbad6e97a8483af0aae0825f9070d4969a8ec46394fd07"

// recordingStore is an in-memory system.Store that logs every Get (with
// whether it hit) and every Put (with the SHA-256 of the record).
type recordingStore struct {
	m     map[memostore.Key][]byte
	log   []string // full keys and digests
	shape []string // keys named k0, k1, … by first appearance
	names map[memostore.Key]string
}

func newRecordingStore() *recordingStore {
	return &recordingStore{m: map[memostore.Key][]byte{}, names: map[memostore.Key]string{}}
}

func (s *recordingStore) name(k memostore.Key) string {
	n, ok := s.names[k]
	if !ok {
		n = fmt.Sprintf("k%d", len(s.names))
		s.names[k] = n
	}
	return n
}

func (s *recordingStore) Get(k memostore.Key) ([]byte, bool, error) {
	b, ok := s.m[k]
	res := map[bool]string{true: "hit", false: "miss"}[ok]
	s.log = append(s.log, fmt.Sprintf("get %x %s", k, res))
	s.shape = append(s.shape, "get "+s.name(k)+" "+res)
	return b, ok, nil
}

func (s *recordingStore) Put(k memostore.Key, b []byte) error {
	s.m[k] = append([]byte(nil), b...)
	s.log = append(s.log, fmt.Sprintf("put %x %x", k, sha256.Sum256(b)))
	s.shape = append(s.shape, "put "+s.name(k))
	return nil
}

// reset clears the log, keeping the records and key names.
func (s *recordingStore) reset() { s.log, s.shape = nil, nil }

// TestStoreSequencePinned pins the exact Get/Put sequence, keys and
// record bytes of system.EvaluateIRCtx (the greedy flow) and Prepare
// (the explorer and the exact solver) on the six applications in four
// cases: cold (an empty store), warm (the cold run's records), corrupt
// (every stored record truncated to half: it reads as a miss and the
// cold run rewrites it) and Verify (the store is bypassed).
func TestStoreSequencePinned(t *testing.T) {
	type flow struct {
		name string
		run  func(ir *cdfg.Program, st system.Store, verify bool) error
		// shapes of the cold, warm and corrupt cases; Verify logs nothing.
		cold, warm, corrupt string
	}
	flows := []flow{
		{name: "EvaluateIRCtx",
			run: func(ir *cdfg.Program, st system.Store, verify bool) error {
				cfg := system.Config{Store: st}
				cfg.Part.Verify = verify
				_, err := system.EvaluateIRCtx(context.Background(), ir, cfg)
				return err
			},
			cold:    "get k0 miss; put k0",
			warm:    "get k0 hit",
			corrupt: "get k0 hit; put k0"},
		{name: "Prepare",
			run: func(ir *cdfg.Program, st system.Store, verify bool) error {
				cfg := Config{Workers: 1, Store: st}
				cfg.Sys.Part.Verify = verify
				_, err := Prepare(context.Background(), ir, cfg)
				return err
			},
			cold:    "get k0 miss; put k1; put k0",
			warm:    "get k0 hit; get k1 hit",
			corrupt: "get k0 hit; put k1; put k0"},
	}
	h := sha256.New()
	for _, fl := range flows {
		for _, a := range apps.All() {
			ir, err := a.Build()
			if err != nil {
				t.Fatal(err)
			}
			st := newRecordingStore()
			step := func(c, want string, verify bool) {
				t.Helper()
				st.reset()
				if err := fl.run(ir, st, verify); err != nil {
					t.Fatalf("%s %s %s: %v", fl.name, a.Name, c, err)
				}
				if got := strings.Join(st.shape, "; "); got != want {
					t.Errorf("%s %s %s: store sequence %q, want %q", fl.name, a.Name, c, got, want)
				}
				fmt.Fprintf(h, "%s %s %s\n%s\n", fl.name, a.Name, c, strings.Join(st.log, "\n"))
			}
			step("cold", fl.cold, false)
			step("warm", fl.warm, false)
			for k, b := range st.m {
				st.m[k] = b[:len(b)/2]
			}
			step("corrupt", fl.corrupt, false)
			step("verify", "", true)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != storeSequenceDigest {
		t.Errorf("store sequence digest %s, want %s", got, storeSequenceDigest)
	}
}

// TestPrepareRejectsSysStore: a store passed in Sys rather than in
// Config.Store is an error naming Config.Store, not an exploration that
// silently runs without a store; Prepare touches neither store.
func TestPrepareRejectsSysStore(t *testing.T) {
	a, err := apps.ByName("trick")
	if err != nil {
		t.Fatal(err)
	}
	ir, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	sysStore, store := newRecordingStore(), newRecordingStore()
	cfg := Config{Workers: 1, Store: store}
	cfg.Sys.Store = sysStore
	p, err := Prepare(context.Background(), ir, cfg)
	if err == nil || !strings.Contains(err.Error(), "Config.Store") {
		t.Fatalf("Prepare with Sys.Store = (%v, %v), want an error naming Config.Store", p, err)
	}
	if len(sysStore.log)+len(store.log) != 0 {
		t.Errorf("Prepare used a store before failing: Sys.Store %q, Store %q", sysStore.log, store.log)
	}
}
