package cdfg

import (
	"fmt"

	"lppart/internal/behav"
)

// Profile is a program's block profile: how often each basic block ran,
// the "#ex_times" of paper Fig. 4.
type Profile struct {
	// BlockFreq[funcName][blockID] is the execution count of the block.
	BlockFreq map[string][]int64
}

// RegionEntries returns how many times the region was entered: the
// execution count of its entry block. For loops this is the number of
// times the loop construct was *reached* times its header iterations; use
// the enclosing block's frequency for invocation counts.
func (pr *Profile) RegionEntries(r *Region) int64 {
	freq := pr.BlockFreq[r.Func.Name]
	if freq == nil || r.Entry >= len(freq) {
		return 0
	}
	return freq[r.Entry]
}

// BlockCount returns the execution count of one block.
func (pr *Profile) BlockCount(f *Function, blockID int) int64 {
	freq := pr.BlockFreq[f.Name]
	if freq == nil || blockID >= len(freq) {
		return 0
	}
	return freq[blockID]
}

// RuntimeError is a trapped execution fault (division by zero, index out
// of range, limits exceeded) with the source position of the faulting
// operation.
type RuntimeError struct {
	Pos behav.Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return fmt.Sprintf("runtime: %v: %s", e.Pos, e.Msg) }
