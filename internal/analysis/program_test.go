package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadProgram builds a Program over the named module-relative dirs.
func loadProgram(t *testing.T, dirs ...string) *Program {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		p, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(d)))
		if err != nil {
			t.Fatalf("LoadDir %s: %v", d, err)
		}
		pkgs = append(pkgs, p)
	}
	return BuildProgram(pkgs)
}

// nodeByName finds a node by display name.
func nodeByName(t *testing.T, prog *Program, name string) *FuncNode {
	t.Helper()
	for _, n := range prog.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no node named %s", name)
	return nil
}

// TestProgramFactsAndClosure proves the builder on the prog fixture:
// signature facts, bottom-up Allocates through a bound closure, the hot
// BFS reaching the closure and its callee, and the exempt boundary
// stopping traversal before grow.
func TestProgramFactsAndClosure(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "src", "prog"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	prog := BuildProgram([]*Package{p})

	root := nodeByName(t, prog, "prog.Root")
	if !root.Facts.HotRoot || !root.Facts.Hot {
		t.Errorf("Root facts = %+v, want HotRoot and Hot", root.Facts)
	}
	if !root.Facts.AcceptsCtx || !root.Facts.ReturnsError {
		t.Errorf("Root signature facts = %+v, want AcceptsCtx and ReturnsError", root.Facts)
	}
	if !root.Facts.Allocates || !strings.Contains(root.Facts.AllocWhy, "calls ") {
		t.Errorf("Root.Allocates = %v (why %q), want propagated bottom-up",
			root.Facts.Allocates, root.Facts.AllocWhy)
	}

	step := nodeByName(t, prog, "prog.Root.step")
	if !step.Facts.Hot || step.Facts.HotVia != "prog.Root" {
		t.Errorf("step facts = %+v, want Hot via prog.Root", step.Facts)
	}

	helper := nodeByName(t, prog, "prog.helper")
	if !helper.Facts.Hot || !helper.Facts.Allocates || len(helper.Allocs) != 1 {
		t.Errorf("helper facts = %+v allocs = %d, want hot with one direct site",
			helper.Facts, len(helper.Allocs))
	}

	exempt := nodeByName(t, prog, "prog.Exempt")
	if !exempt.Facts.AllocExempt {
		t.Errorf("Exempt facts = %+v, want AllocExempt", exempt.Facts)
	}
	if grow := nodeByName(t, prog, "prog.grow"); grow.Facts.Hot {
		t.Errorf("grow is hot: the exempt boundary must stop traversal")
	}
	if plain := nodeByName(t, prog, "prog.Plain"); plain.Facts.Allocates || plain.Facts.Hot {
		t.Errorf("Plain facts = %+v, want neither Allocates nor Hot", plain.Facts)
	}

	roots := prog.HotRoots()
	if len(roots) != 1 || roots[0] != root {
		t.Errorf("HotRoots = %d entries, want exactly Root", len(roots))
	}
}

// TestHotClosureCoversAllocGuardedFunctions pins the pass to the repo's
// runtime contract: every function guarded by a testing.AllocsPerRun
// test (asic.(*Core).RunASIC via TestRunASICZeroAlloc, asic.Bind via
// TestBindZeroAllocScratch, partition.(*Evaluator).EvalInto via
// TestEvalIntoZeroAlloc, milp.SolveInstance via
// TestSolveInstanceZeroAlloc, the online cache profiler
// trace.(*Profiler).access via TestPrepareColdTraceZeroAlloc)
// plus the annotated scheduler/splice inner loops must be hot roots, and
// the closure must cross package boundaries (behav.EvalBinOp runs inside
// the ASIC interpreter loop, stackdist.(*Profiler).Access inside the
// online profiler) and reach generic methods (the scratch recycler's Get
// serves the scheduler and the binder).
func TestHotClosureCoversAllocGuardedFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("loads half the module through the source importer")
	}
	prog := loadProgram(t,
		"internal/cdfg", "internal/tech", "internal/behav",
		"internal/sched", "internal/asic", "internal/partition", "internal/dse",
		"internal/milp", "internal/stackdist", "internal/trace", "internal/scratch",
	)
	for _, name := range []string{
		"sched.ScheduleBlock",
		"asic.(*Core).RunASIC",
		"asic.Bind",
		"partition.(*Priced).Add",
		"partition.(*Priced).Remove",
		"partition.(*Evaluator).EvalInto",
		"dse.searchGeometry.walk",
		"milp.SolveInstance",
		"trace.(*Profiler).access",
	} {
		if n := nodeByName(t, prog, name); !n.Facts.HotRoot {
			t.Errorf("%s: HotRoot = false, want annotated root", name)
		}
	}
	if n := nodeByName(t, prog, "behav.EvalBinOp"); !n.Facts.Hot {
		t.Errorf("behav.EvalBinOp not in hot closure: cross-package BFS broken")
	}
	if n := nodeByName(t, prog, "stackdist.(*Profiler).Access"); !n.Facts.Hot {
		t.Errorf("stackdist.(*Profiler).Access not in the online profiler's hot closure")
	}
	if n := nodeByName(t, prog, "scratch.(*Pool[T]).Get"); !n.Facts.Hot {
		t.Errorf("scratch.(*Pool[T]).Get not in the hot closure: generic calls not linked")
	}
	if n := nodeByName(t, prog, "partition.scheduleBind"); !n.Facts.AllocExempt {
		t.Errorf("partition.scheduleBind: AllocExempt = false, want cold-fill boundary")
	}
}
