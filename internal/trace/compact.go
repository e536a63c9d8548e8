package trace

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

// chunkBytes is the sealed-chunk size of the compact store: big enough to
// amortize appends to one allocation per tens of thousands of accesses,
// small enough that the partially filled tail chunk wastes little.
const chunkBytes = 1 << 16

// Compact is a chunked, delta+varint-encoded reference stream — the
// storage behind Trace. Each access is one uvarint holding the reference
// kind in its low two bits and, above them, the zigzag-encoded word-
// address delta against the previous access of the SAME kind:
// instruction fetches are mostly sequential and data references local,
// so most accesses encode in one or two bytes versus the eight bytes of
// a plain (kind, address) slice (~4-8x smaller on the benchmark
// applications' traces). Chunks are storage segmentation only — the
// delta chain runs across them — so decoding always streams from the
// start, which is the only access pattern replay and profiling need.
type Compact struct {
	chunks [][]byte
	cur    []byte
	enc    encoder
	scans  atomic.Int64
}

// Stream summarizes a reference stream: its accesses of each kind and
// its size in the compact encoding.
type Stream struct {
	Fetches, Reads, Writes int64
	Bytes                  int64
}

// Len returns the number of accesses.
func (s Stream) Len() int64 { return s.Fetches + s.Reads + s.Writes }

// encoder decides the compact format for both the Compact store and the
// online Profiler: it turns each access into its uvarint word and counts
// the stream, so a profiled run reports the size its recording would
// have had.
type encoder struct {
	last   [3]int32
	counts [3]int64
	bytes  int64
}

// encode returns the uvarint word of one access and counts it.
func (e *encoder) encode(k Kind, addr int32) uint64 {
	delta := int64(addr) - int64(e.last[k])
	e.last[k] = addr
	e.counts[k]++
	u := zigzag(delta)<<2 | uint64(k&3)
	e.bytes += int64(bits.Len64(u|1)+6) / 7
	return u
}

// stream returns the counts and encoded size of the stream so far.
func (e *encoder) stream() Stream {
	return Stream{Fetches: e.counts[Fetch], Reads: e.counts[Read], Writes: e.counts[Write], Bytes: e.bytes}
}

// Append records one access.
func (c *Compact) Append(k Kind, addr int32) {
	if cap(c.cur)-len(c.cur) < binary.MaxVarintLen64 {
		if c.cur != nil {
			c.chunks = append(c.chunks, c.cur)
		}
		c.cur = make([]byte, 0, chunkBytes)
	}
	c.cur = binary.AppendUvarint(c.cur, c.enc.encode(k, addr))
}

// Len returns the number of recorded accesses.
func (c *Compact) Len() int64 { return c.enc.stream().Len() }

// Bytes returns the encoded size of the stream in bytes.
func (c *Compact) Bytes() int64 { return c.enc.bytes }

// Stream returns the recorded stream's counts and encoded size.
func (c *Compact) Stream() Stream { return c.enc.stream() }

// Scans returns how many times the stream has been decoded end to end
// (Scan calls and exhausted iterators) — the "trace passes" the profiler
// and the sweep tests measure.
func (c *Compact) Scans() int64 { return c.scans.Load() }

// Scan streams every access in record order through fn. Concurrent Scans
// are safe; appending while scanning is not.
func (c *Compact) Scan(fn func(k Kind, addr int32)) {
	var last [3]int32
	for _, ch := range c.chunks {
		scanChunk(ch, &last, fn)
	}
	scanChunk(c.cur, &last, fn)
	c.scans.Add(1)
}

func scanChunk(b []byte, last *[3]int32, fn func(k Kind, addr int32)) {
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			panic("trace: corrupt compact stream")
		}
		b = b[n:]
		k := Kind(u & 3)
		addr := int32(int64(last[k]) + unzigzag(u>>2))
		last[k] = addr
		fn(k, addr)
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
