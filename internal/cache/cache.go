// Package cache implements the instruction- and data-cache cores with the
// analytical per-access energy model the paper uses ("analytical models
// for main memory energy consumption and caches are fed with the output
// of a cache profiler", §3.5; parameters "of a 0.8µ CMOS process", §4).
//
// The simulator is a standard set-associative cache with LRU replacement
// and, for data caches, write-back/write-allocate. Every access costs an
// analytical energy (row decode + tag compare per way + data array read +
// output drive) derived from tech.CacheTech and the geometry; misses
// additionally refill a full line from main memory over the bus, which is
// how a different hardware/software partition changes cache AND memory
// AND bus energy — the whole-system effect Table 1's columns capture.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"lppart/internal/bus"
	"lppart/internal/mem"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// MaxAssoc bounds Config.Assoc independently of Sets: a 64k-way set is
// already far beyond any buildable CAM, so larger values are treated as
// geometry-generator bugs rather than design points.
const MaxAssoc = 1 << 16

// Config is a cache geometry.
type Config struct {
	Sets      int // number of sets (power of two)
	Assoc     int // ways per set
	LineWords int // 32-bit words per line (power of two)
	// WriteBack selects write-back/write-allocate (true, the data-cache
	// default) versus read-only behaviour for instruction caches (writes
	// are rejected).
	WriteBack bool
}

// SizeBytes returns the cache capacity in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Assoc * c.LineWords * 4 }

// AppendKey appends the geometry's canonical encoding to b: Sets, Assoc,
// LineWords and WriteBack (0 or 1), each a little-endian 64-bit word.
// Measurement keys and records use it.
func (c Config) AppendKey(b []byte) []byte {
	wb := uint64(0)
	if c.WriteBack {
		wb = 1
	}
	for _, v := range [4]uint64{uint64(c.Sets), uint64(c.Assoc), uint64(c.LineWords), wb} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TagBits returns the tag-field width of this geometry: a 32-bit byte
// address minus the set-index and line-offset bits, floored at one. The
// geometry must be valid (see New): Sets and LineWords are powers of two,
// so the field widths are exact integers (math/bits, no float rounding).
func (c Config) TagBits() int {
	tagBits := 32 - bits.TrailingZeros(uint(c.Sets)) - bits.TrailingZeros(uint(c.LineWords)) - 2
	if tagBits < 1 {
		tagBits = 1
	}
	return tagBits
}

// AccessEnergy returns the analytical per-access energy of this geometry
// in technology ct — row decode + tag compare per way + data array read +
// output drive (see the package comment) — without building a cache core.
// The geometry must be valid (see New); the partitioning baseline uses
// this to price i-cache fetches removed by a partition.
func (c Config) AccessEnergy(ct tech.CacheTech) units.Energy {
	setsLog2 := bits.TrailingZeros(uint(c.Sets))
	lineBits := c.LineWords * 32
	return units.Energy(float64(setsLog2))*ct.EDecodePerSetLog2 +
		units.Energy(float64(c.TagBits()*c.Assoc))*ct.ETagBit +
		units.Energy(float64(lineBits))*ct.EDataBit +
		ct.EOutputPerWord
}

// RefillWords returns the words read from main memory by n line refills
// (misses) of this geometry. Exported so the single-pass profiler prices
// misses with the same arithmetic a live core would.
func (c Config) RefillWords(misses int64) int64 { return misses * int64(c.LineWords) }

// WriteBackWords returns the words written to main memory by n dirty-line
// write-backs of this geometry.
func (c Config) WriteBackWords(writeBacks int64) int64 { return writeBacks * int64(c.LineWords) }

// MissStalls returns the stall cycles n refills plus m write-backs cost
// against memory technology mt — exactly the sum of the per-access stalls
// Access and Flush would have returned for the same counts.
func (c Config) MissStalls(mt tech.MemoryTech, misses, writeBacks int64) int64 {
	return int64(mt.LatencyCycles) * (c.RefillWords(misses) + c.WriteBackWords(writeBacks))
}

// Validate checks the geometry: power-of-two sets and line size, positive
// associativity within MaxAssoc.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets %d must be a positive power of two", c.Sets)
	}
	if c.LineWords <= 0 || c.LineWords&(c.LineWords-1) != 0 {
		return fmt.Errorf("cache: line words %d must be a positive power of two", c.LineWords)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d must be positive", c.Assoc)
	}
	if c.Assoc > MaxAssoc {
		return fmt.Errorf("cache: associativity %d exceeds MaxAssoc %d", c.Assoc, MaxAssoc)
	}
	return nil
}

// Stats is the access accounting of a cache core.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	WriteBacks int64 // dirty lines evicted to memory
}

// HitRate returns hits/accesses (1 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	valid bool
	dirty bool
	tag   int32
	lru   int64
}

// Cache is one cache core.
type Cache struct {
	Name    string
	Cfg     Config
	Stats   Stats
	eAccess units.Energy
	// lines holds the sets one after another: way w of set s is
	// lines[s*Assoc+w].
	lines   []line
	backend *mem.Memory
	bus     *bus.Bus
	tick    int64
}

// New builds a cache. backend and b may be nil for a cache simulated in
// isolation (misses then cost no memory/bus energy, only their stall
// cycles are skipped).
func New(name string, cfg Config, ct tech.CacheTech, backend *mem.Memory, b *bus.Bus) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{Name: name, Cfg: cfg, backend: backend, bus: b,
		lines: make([]line, cfg.Sets*cfg.Assoc)}
	// Analytical access energy from the geometry (see package comment).
	c.eAccess = cfg.AccessEnergy(ct)
	return c, nil
}

// AccessEnergy returns the per-access energy of this geometry.
func (c *Cache) AccessEnergy() units.Energy { return c.eAccess }

// Energy returns the cache core's total array energy so far (misses'
// memory and bus energy are accounted in those cores, not here).
func (c *Cache) Energy() units.Energy {
	return units.Energy(float64(c.Stats.Accesses)) * c.eAccess
}

// Access performs one word access. addr is a word address. It returns the
// stall cycles beyond a hit (0 on hit).
func (c *Cache) Access(addr int32, write bool) (stall int) {
	if write && !c.Cfg.WriteBack {
		panic(fmt.Sprintf("cache %s: write to read-only cache", c.Name))
	}
	c.tick++
	c.Stats.Accesses++
	lineAddr := addr / int32(c.Cfg.LineWords)
	setIdx := int(lineAddr) & (c.Cfg.Sets - 1)
	tag := lineAddr / int32(c.Cfg.Sets)
	set := c.lines[setIdx*c.Cfg.Assoc : (setIdx+1)*c.Cfg.Assoc]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			return 0
		}
	}
	// Miss: fill the first invalid way if any remain; only a full set
	// evicts, and then strictly the LRU way. (Scanning for the LRU and
	// the first invalid way together used to skip an invalid way 0.)
	c.Stats.Misses++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
	}
	stall = 0
	if set[victim].valid && set[victim].dirty {
		c.Stats.WriteBacks++
		if c.backend != nil {
			stall += c.backend.Write(c.Cfg.LineWords)
		}
		if c.bus != nil {
			c.bus.Write(c.Cfg.LineWords)
		}
	}
	if c.backend != nil {
		stall += c.backend.Read(c.Cfg.LineWords)
	}
	if c.bus != nil {
		c.bus.Read(c.Cfg.LineWords)
	}
	set[victim] = line{valid: true, dirty: write, tag: tag, lru: c.tick}
	return stall
}

// Flush writes back all dirty lines (end-of-run accounting) and returns
// the stall cycles of the write-backs.
func (c *Cache) Flush() (stall int) {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty {
			c.Stats.WriteBacks++
			if c.backend != nil {
				stall += c.backend.Write(c.Cfg.LineWords)
			}
			if c.bus != nil {
				c.bus.Write(c.Cfg.LineWords)
			}
			l.dirty = false
		}
	}
	return stall
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.Stats = Stats{}
	c.tick = 0
}

// DefaultICache is the reference instruction-cache geometry: 2 KiB
// direct-mapped with 4-word lines, an embedded-class size for the era.
func DefaultICache() Config { return Config{Sets: 128, Assoc: 1, LineWords: 4} }

// DefaultDCache is the reference data-cache geometry: 2 KiB 2-way with
// 4-word lines, write-back.
func DefaultDCache() Config { return Config{Sets: 64, Assoc: 2, LineWords: 4, WriteBack: true} }
