package cdfg

import "lppart/internal/behav"

// BuildCold is Build on a fresh scratch, as the first Build of a process
// runs.
func BuildCold(src *behav.Program) (*Program, error) {
	return build(src, new(buildScratch))
}
