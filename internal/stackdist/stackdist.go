// Package stackdist implements a single-pass, multi-configuration LRU
// cache profiler: Mattson et al.'s stack-distance algorithm, the
// technique behind the WARTS/Tycho trace tools the paper's Fig. 5
// methodology descends from ("Trace Tool" feeding a "Cache Profiler",
// after [17]), extended to whole (Sets, Assoc) families in the style of
// Hill & Smith's all-associativity simulation.
//
// One pass over a reference stream maintains per-set LRU stacks at the
// finest set granularity of the geometry grid. For the finest set count a
// reference's stack distance is simply the line's position in its own
// stack; for every coarser power-of-two set count the distance follows by
// set refinement — a coarse set is the disjoint union of finest sets, so
// the coarse distance adds, for each sibling finest set folding into the
// same coarse set, the number of lines touched more recently than the
// referenced line's previous access (a prefix of that sibling's
// recency-ordered stack). By the LRU inclusion property a reference hits
// a (Sets, Assoc) cache exactly when its stack distance at that set count
// is below Assoc, so one distance histogram per set count yields exact
// hit/miss counts for EVERY (Sets, Assoc) combination sharing the line
// size.
//
// Write-backs are exact too. A write-back/write-allocate cache writes a
// line back once per residency period that contains at least one store
// (at the dirty eviction ending the period, or at the final flush). A
// store starts such a period in (Sets, Assoc) exactly when the largest
// stack distance the line saw since the previous store to it — the store
// itself included, a cold start counting as infinite — is at least
// Assoc. Recording that running maximum into a second histogram at every
// store therefore counts dirty generations, and with them write-backs,
// exactly.
//
// Caveats (see EXPERIMENTS.md): LRU replacement only — the inclusion
// property does not hold for e.g. FIFO or random replacement — one line
// size per pass, and non-negative word addresses (negative addresses
// would alias differently in each geometry's truncated-division tag
// arithmetic, so no single line identity covers all set counts).
package stackdist

import (
	"fmt"
	"sort"

	"lppart/internal/cache"
)

// entry is one tracked line in a finest-granularity LRU stack.
type entry struct {
	line int32 // full line address (identity across all set counts)
	time int64 // tick of the most recent access
	// rm is, per grid set count, the largest stack distance the line saw
	// since the previous store to it (-1: none yet). Distances saturate
	// at the profiler's associativity cap. Nil on read-only profilers.
	rm []int32
}

// Profiler profiles every (Sets, Assoc) LRU geometry sharing one line
// size in a single pass over the reference stream.
type Profiler struct {
	lineWords int32
	setCounts []int // ascending, distinct powers of two
	maxSets   int   // finest granularity = last element of setCounts
	cap       int   // largest associativity of interest; distances saturate here
	writeBack bool

	stacks [][]entry // [maxSets] recency-ordered, most recent first, ≤ cap deep
	hist   [][]int64 // [set count][distance 0..cap]; bucket cap = miss for all
	wbHist [][]int64 // [set count][running max 0..cap], recorded per store

	dists    []int // per-access scratch: distance per set count
	tick     int64
	accesses int64
}

// New builds a profiler for every geometry with the given line size whose
// set count is in setCounts and whose associativity is at most maxAssoc.
// writeBack enables store tracking (data caches); a read-only profiler
// (instruction caches) rejects stores.
func New(lineWords int, setCounts []int, maxAssoc int, writeBack bool) (*Profiler, error) {
	if lineWords <= 0 || lineWords&(lineWords-1) != 0 {
		return nil, fmt.Errorf("stackdist: line words %d must be a positive power of two", lineWords)
	}
	if maxAssoc <= 0 || maxAssoc > cache.MaxAssoc {
		return nil, fmt.Errorf("stackdist: associativity cap %d out of range [1, %d]", maxAssoc, cache.MaxAssoc)
	}
	if len(setCounts) == 0 {
		return nil, fmt.Errorf("stackdist: no set counts")
	}
	sc := append([]int(nil), setCounts...)
	sort.Ints(sc)
	uniq := sc[:1]
	for _, s := range sc[1:] {
		if s != uniq[len(uniq)-1] {
			uniq = append(uniq, s)
		}
	}
	for _, s := range uniq {
		if s <= 0 || s&(s-1) != 0 {
			return nil, fmt.Errorf("stackdist: sets %d must be a positive power of two", s)
		}
	}
	p := &Profiler{
		lineWords: int32(lineWords),
		setCounts: uniq,
		maxSets:   uniq[len(uniq)-1],
		cap:       maxAssoc,
		writeBack: writeBack,
		dists:     make([]int, len(uniq)),
	}
	p.stacks = make([][]entry, p.maxSets)
	p.hist = make([][]int64, len(uniq))
	p.wbHist = make([][]int64, len(uniq))
	for i := range uniq {
		p.hist[i] = make([]int64, maxAssoc+1)
		p.wbHist[i] = make([]int64, maxAssoc+1)
	}
	return p, nil
}

// Accesses returns the number of references profiled so far.
func (p *Profiler) Accesses() int64 { return p.accesses }

// Access profiles one word reference. addr is a word address (the same
// convention cache.Cache.Access uses); write marks a store.
func (p *Profiler) Access(addr int32, write bool) {
	if write && !p.writeBack {
		panic("stackdist: store on a read-only profiler")
	}
	p.tick++
	p.accesses++
	line := addr / p.lineWords
	f := int(line) & (p.maxSets - 1)
	st := p.stacks[f]
	pos := -1
	for i := range st {
		if st[i].line == line {
			pos = i
			break
		}
	}
	var prevTime int64
	if pos >= 0 {
		prevTime = st[pos].time
	}

	// Stack distance per grid set count. A line absent from its finest
	// stack has been pushed past the cap there, hence past it for every
	// coarser set count too (coarse sets are supersets): saturate.
	for si, s := range p.setCounts {
		d := p.cap
		if pos >= 0 {
			d = pos // lines above it in its own finest stack
			if s != p.maxSets && d < p.cap {
			refine:
				// Sibling finest sets folding into the same s-set cache
				// set: count their lines touched after prevTime (a prefix
				// of each recency-ordered stack), saturating at the cap.
				for g := f & (s - 1); g < p.maxSets; g += s {
					if g == f {
						continue
					}
					for _, se := range p.stacks[g] {
						if se.time <= prevTime {
							break
						}
						d++
						if d >= p.cap {
							break refine
						}
					}
				}
			}
		}
		p.dists[si] = d
		p.hist[si][d]++
	}

	// Move-to-front update of the finest stack.
	var e entry
	if pos >= 0 {
		e = st[pos]
		copy(st[1:pos+1], st[:pos])
	} else {
		if len(st) < p.cap {
			st = append(st, entry{}) //lint:alloc bounded LRU-stack fill: at most cap entries per set, then reused
			p.stacks[f] = st
		}
		e = st[len(st)-1] // dropped entry (its rm buffer is reused) or fresh
		copy(st[1:], st[:len(st)-1])
		e.line = line
		if p.writeBack {
			if e.rm == nil {
				e.rm = make([]int32, len(p.setCounts)) //lint:alloc bounded LRU-stack fill: once per stack entry, then reused
			}
			for si := range e.rm {
				e.rm[si] = -1
			}
		}
	}
	e.time = p.tick
	st[0] = e

	// Dirty-generation accounting (see the package comment).
	if p.writeBack {
		rm := e.rm
		for si, d := range p.dists {
			if int32(d) > rm[si] {
				rm[si] = int32(d)
			}
		}
		if write {
			for si := range rm {
				p.wbHist[si][rm[si]]++
				rm[si] = -1
			}
		}
	}
}

// Stats derives the exact cache.Stats of the (sets, assoc) geometry from
// the recorded histograms. sets must be one of the profiled set counts
// and assoc within the profiler's associativity cap.
func (p *Profiler) Stats(sets, assoc int) (cache.Stats, error) {
	si := -1
	for i, s := range p.setCounts {
		if s == sets {
			si = i
			break
		}
	}
	if si < 0 {
		return cache.Stats{}, fmt.Errorf("stackdist: set count %d not profiled", sets)
	}
	if assoc <= 0 || assoc > p.cap {
		return cache.Stats{}, fmt.Errorf("stackdist: associativity %d out of profiled range [1, %d]", assoc, p.cap)
	}
	var hits int64
	for d := 0; d < assoc; d++ {
		hits += p.hist[si][d]
	}
	var wbs int64
	if p.writeBack {
		for d := assoc; d <= p.cap; d++ {
			wbs += p.wbHist[si][d]
		}
	}
	return cache.Stats{
		Accesses:   p.accesses,
		Hits:       hits,
		Misses:     p.accesses - hits,
		WriteBacks: wbs,
	}, nil
}
