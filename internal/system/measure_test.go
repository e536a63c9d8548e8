package system

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"lppart/internal/apps"
	"lppart/internal/apps/appstest"
	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/memostore"
	"lppart/internal/tech"
)

// mapStore is an in-memory Store that counts its lookups.
type mapStore struct {
	mu         sync.Mutex
	m          map[memostore.Key][]byte
	hits, miss int
}

func newMapStore() *mapStore { return &mapStore{m: map[memostore.Key][]byte{}} }

func (s *mapStore) Get(k memostore.Key) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[k]
	if ok {
		s.hits++
	} else {
		s.miss++
	}
	return b, ok, nil
}

func (s *mapStore) Put(k memostore.Key, b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = b
	return nil
}

// replaySources returns the six applications and the examples' own
// behavioral programs.
func replaySources(t testing.TB) map[string]string {
	srcs, err := appstest.Examples()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps.All() {
		srcs["app "+a.Name] = a.Source
	}
	return srcs
}

func buildSource(t testing.TB, src string) *cdfg.Program {
	prog, err := behav.Parse("p", src)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := cdfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return ir
}

// TestEvaluateReplayMatchesCold is the replay contract: an evaluation
// that finds its program's measurement in the store equals a store-less
// cold one field for field, except Initial.ISS (nil on a replay) and the
// copied initial globals (a replay checks a digest instead). The first
// evaluation with the store measures cold and writes the record; the
// second hits it.
func TestEvaluateReplayMatchesCold(t *testing.T) {
	srcs := replaySources(t)
	if len(srcs) < 7 {
		t.Fatalf("only %d programs collected", len(srcs))
	}
	for name, src := range srcs {
		for _, cores := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/cores=%d", name, cores), func(t *testing.T) {
				ir := buildSource(t, src)
				var cfg Config
				cfg.Part.MaxCores = cores
				cold, err := EvaluateIRCtx(context.Background(), ir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := newMapStore()
				cfg.Store = st
				if _, err := EvaluateIRCtx(context.Background(), ir, cfg); err != nil {
					t.Fatal(err)
				}
				replay, err := EvaluateIRCtx(context.Background(), ir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st.hits != 1 || st.miss != 1 || len(st.m) != 1 {
					t.Fatalf("store: %d hits, %d misses, %d records; want 1, 1, 1", st.hits, st.miss, len(st.m))
				}
				if replay.Initial.ISS != nil {
					t.Error("replayed Initial.ISS is not nil")
				}
				cold.Initial.ISS, cold.initialGlobals = nil, nil
				if !reflect.DeepEqual(cold, replay) {
					t.Errorf("replayed evaluation differs from the cold one:\n%+v\nvs\n%+v", replay, cold)
				}
			})
		}
	}
}

// TestReplayDigestMismatchFallsBackCold: a record whose globals digest
// does not match the partitioned design is thrown away; the evaluation
// runs cold, returns the cold result and rewrites the record.
func TestReplayDigestMismatchFallsBackCold(t *testing.T) {
	ir := buildSource(t, apps.All()[1].Source)
	st := newMapStore()
	cfg := Config{Store: st}
	want, err := EvaluateIRCtx(context.Background(), ir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := MeasureKey(Fingerprint(ir, cfg))
	good := st.m[key]
	m := DecodeMeasurement(good, cfg)
	m.Globals[0] ^= 1
	st.m[key] = EncodeMeasurement(m)

	got, err := EvaluateIRCtx(context.Background(), ir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Initial.ISS == nil {
		t.Error("digest mismatch: the result is the replay's, want the cold run's")
	}
	if !reflect.DeepEqual(got.Partitioned, want.Partitioned) || got.Initial.Total() != want.Initial.Total() {
		t.Error("digest mismatch: result differs from the cold run's")
	}
	if !bytes.Equal(st.m[key], good) {
		t.Error("digest mismatch: the cold run did not rewrite the record")
	}
}

// TestStoreBypassedInVerifyMode: an audited evaluation exercises the
// full live flow, reading and writing no record.
func TestStoreBypassedInVerifyMode(t *testing.T) {
	st := newMapStore()
	cfg := Config{Store: st}
	cfg.Part.Verify = true
	if _, err := EvaluateIRCtx(context.Background(), buildApp(t, "engine"), cfg); err != nil {
		t.Fatal(err)
	}
	if st.hits+st.miss != 0 || len(st.m) != 0 {
		t.Errorf("verify-mode evaluation: %d lookups, %d records; want none", st.hits+st.miss, len(st.m))
	}
}

// TestFingerprintCoversLibrary perturbs every field of the default
// technology library, unexported ones included, one at a time (every
// scalar, every array and slice element, every map value, plus a map
// entry added and removed and a slice grown and shrunk). Each
// perturbation must change the key, and restoring it must restore the
// key. The measurement inputs outside the library change it too, the
// partitioning knobs do not, and an unset field keys like its default.
func TestFingerprintCoversLibrary(t *testing.T) {
	ir := buildApp(t, "trick")
	lib := tech.Default()
	cfg := Config{}
	cfg.Part.Lib = lib
	base := Fingerprint(ir, cfg)

	perturbed := 0
	check := func(path string) {
		t.Helper()
		if Fingerprint(ir, cfg) == base {
			t.Errorf("perturbing %s does not change the key", path)
		}
		perturbed++
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		v = settable(v)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			old := v.Interface()
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			check(path + " grown")
			v.Set(reflect.ValueOf(old))
			if v.Len() > 0 {
				v.Set(v.Slice(0, v.Len()-1))
				check(path + " shrunk")
				v.Set(reflect.ValueOf(old))
			}
		case reflect.Map:
			for _, k := range v.MapKeys() {
				old := v.MapIndex(k)
				v.SetMapIndex(k, reflect.ValueOf(old.Int()+1).Convert(old.Type()))
				check(fmt.Sprintf("%s[%v]", path, k))
				v.SetMapIndex(k, reflect.Value{})
				check(fmt.Sprintf("%s[%v] removed", path, k))
				v.SetMapIndex(k, old)
			}
			for i := int64(0); ; i++ {
				k := reflect.ValueOf(i).Convert(v.Type().Key())
				if v.MapIndex(k).IsValid() {
					continue
				}
				v.SetMapIndex(k, reflect.ValueOf(1).Convert(v.Type().Elem()))
				check(fmt.Sprintf("%s[%v] added", path, k))
				v.SetMapIndex(k, reflect.Value{})
				break
			}
		case reflect.Int:
			old := v.Int()
			v.SetInt(old + 1)
			check(path)
			v.SetInt(old)
		case reflect.Float64:
			old := v.Float()
			v.SetFloat(old*2 + 1)
			check(path)
			v.SetFloat(old)
		case reflect.String:
			old := v.String()
			v.SetString(old + "x")
			check(path)
			v.SetString(old)
		case reflect.Bool:
			v.SetBool(!v.Bool())
			check(path)
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: unhandled kind %v", path, v.Kind())
		}
		if Fingerprint(ir, cfg) != base {
			t.Fatalf("restoring %s does not restore the key", path)
		}
	}
	walk(reflect.ValueOf(lib).Elem(), "Library")
	if perturbed < 250 {
		t.Errorf("only %d perturbations; the walk missed the library's fields", perturbed)
	}

	for name, mod := range map[string]func(c *Config){
		"ICache.Sets":  func(c *Config) { c.ICache = cache.DefaultICache(); c.ICache.Sets *= 2 },
		"DCache.Assoc": func(c *Config) { c.DCache = cache.DefaultDCache(); c.DCache.Assoc *= 2 },
		"MemWords":     func(c *Config) { c.MemWords = 1 << 19 },
		"StackWords":   func(c *Config) { c.StackWords = 1 << 13 },
		"MaxInstrs":    func(c *Config) { c.MaxInstrs = 1e6 },
	} {
		c := cfg
		mod(&c)
		if Fingerprint(ir, c) == base {
			t.Errorf("changing %s does not change the key", name)
		}
	}
	c := cfg
	c.Part.F, c.Part.MaxClusters, c.Part.MaxCores = 1.7, 3, 2
	c.Part.ResourceSets = tech.DefaultResourceSets()[:1]
	if Fingerprint(ir, c) != base {
		t.Error("partitioning knobs change the key")
	}
	c = Config{ICache: cache.DefaultICache(), DCache: cache.DefaultDCache(), MemWords: 1 << 20, StackWords: 1 << 14}
	if Fingerprint(ir, c) != Fingerprint(ir, Config{}) || Fingerprint(ir, Config{}) != base {
		t.Error("an unset configuration keys differently from its defaults")
	}
}

// settable returns v, made settable when it was reached through an
// unexported field.
func settable(v reflect.Value) reflect.Value {
	if v.CanSet() || !v.CanAddr() {
		return v
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// exploreGrid is the measured grid of a default dse.Prepare: the anchor
// pair, then dse.DefaultGeometries (the reference geometry, halved
// i-cache, halved d-cache, both halved).
func exploreGrid() [][2]cache.Config {
	i, d := cache.DefaultICache(), cache.DefaultDCache()
	ih, dh := i, d
	ih.Sets /= 2
	dh.Sets /= 2
	return [][2]cache.Config{{i, d}, {i, d}, {ih, d}, {i, dh}, {ih, dh}}
}

// FuzzDecodeMeasurement fuzzes both persisted record kinds, the bytes a
// memostore or the server's LRU hands back: the initial-design
// measurement record and the geometry sweep's record. Neither decoder
// may panic, and any record that decodes must re-encode to a record
// that decodes again and re-encodes to the same bytes. The encodings
// store every field, floats as raw bit patterns, so equal encodings are
// equal records. The seeds are the genuine records of the six
// applications and the examples on a default dse.Prepare's grid, which
// must round-trip byte-exactly, and truncations of them: the
// measurement records first, then the sweep records.
func FuzzDecodeMeasurement(f *testing.F) {
	var cfg Config
	pairs := exploreGrid()
	srcs := replaySources(f)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var mrecs, srecs [][]byte
	for _, name := range names {
		m, reps, err := Measure(context.Background(), buildSource(f, srcs[name]), cfg, pairs)
		if err != nil {
			f.Fatal(err)
		}
		mrec, srec := EncodeMeasurement(m), encodeReports(reps)
		if got := DecodeMeasurement(mrec, cfg); got == nil || !bytes.Equal(EncodeMeasurement(got), mrec) {
			f.Fatalf("%s: genuine measurement record does not round-trip", name)
		}
		if got := decodeReports(srec, pairs); got == nil || !bytes.Equal(encodeReports(got), srec) {
			f.Fatalf("%s: genuine sweep record does not round-trip", name)
		}
		mrecs, srecs = append(mrecs, mrec), append(srecs, srec)
	}
	for _, rec := range append(mrecs, srecs...) {
		f.Add(rec)
		f.Add(rec[:len(rec)-1])
		f.Add(rec[:len(rec)/2])
		f.Add(rec[:8])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m := DecodeMeasurement(data, cfg); m != nil {
			rec := EncodeMeasurement(m)
			again := DecodeMeasurement(rec, cfg)
			if again == nil {
				t.Fatal("re-encoded measurement record does not decode")
			}
			if !bytes.Equal(EncodeMeasurement(again), rec) {
				t.Fatal("re-encoded measurement record decodes to a different record")
			}
		}
		if reps := decodeReports(data, pairs); reps != nil {
			rec := encodeReports(reps)
			again := decodeReports(rec, pairs)
			if again == nil {
				t.Fatal("re-encoded sweep record does not decode")
			}
			if !bytes.Equal(encodeReports(again), rec) {
				t.Fatal("re-encoded sweep record decodes to a different record")
			}
		}
	})
}

// measurementRecordDigest is the SHA-256 of the six applications'
// measurement and sweep records on a default Prepare's grid. A
// memostore written by any earlier build holds these bytes, so they must
// not move while the records keep their version. (Measurement record
// version 2 added the initial design's breakdown and globals digest.)
const measurementRecordDigest = "56f04e7bd23fea5fe7952f96fbe2d16ca7970c17632ca0d6584765fcba32ce5e"

// TestRecordsRejectNonFiniteEnergies: a record whose energy field
// holds a NaN or an infinity is corrupt. Both decoders read it as a
// miss, so the cold run rewrites it instead of pricing with the value
// (a NaN baseline also never compares equal to its own replay).
func TestRecordsRejectNonFiniteEnergies(t *testing.T) {
	pairs := exploreGrid()
	ir, err := apps.All()[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	m, reps, err := Measure(context.Background(), ir, Config{}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	mrec, srec := EncodeMeasurement(m), encodeReports(reps)
	// The measurement record's first energy follows its version; the
	// sweep record's first follows the version, the count and the first
	// report's two geometries and eight counters.
	moff, soff := 8, 16+2*32+8*8
	if f := math.Float64frombits(binary.LittleEndian.Uint64(srec[soff:])); f != float64(reps[0].EICache) {
		t.Fatalf("sweep record offset %d holds %v, want the first i-cache energy %v", soff, f, reps[0].EICache)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := append([]byte(nil), mrec...)
		binary.LittleEndian.PutUint64(b[moff:], math.Float64bits(bad))
		if DecodeMeasurement(b, Config{}) != nil {
			t.Errorf("measurement record with energy %v decodes", bad)
		}
		b = append(b[:0], srec...)
		binary.LittleEndian.PutUint64(b[soff:], math.Float64bits(bad))
		if decodeReports(b, pairs) != nil {
			t.Errorf("sweep record with energy %v decodes", bad)
		}
	}
}

// TestMeasurementRecordDigest pins the persisted measurement records
// byte for byte, profile included: a -store directory written before a
// change to how the measurement is taken must still replay.
func TestMeasurementRecordDigest(t *testing.T) {
	pairs := exploreGrid()
	h := sha256.New()
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, reps, err := Measure(context.Background(), ir, Config{}, pairs)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(EncodeMeasurement(m))
		h.Write(encodeReports(reps))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != measurementRecordDigest {
		t.Errorf("measurement record digest %s, want %s", got, measurementRecordDigest)
	}
}
