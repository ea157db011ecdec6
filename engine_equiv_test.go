package dpa

// Engine-equivalence tests: the parallel conservative engine must produce
// bit-identical statistics to the sequential engine on real workloads under
// every runtime scheme. This is the determinism contract the two-engine
// design rests on (see DESIGN.md).

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"dpa/internal/em3d"
	"dpa/internal/pdg"
	"dpa/internal/tpart"
)

// equivSpecs are the runtime schemes the engines are compared under. In
// RunPhase-only suites the planner runs without a history; em3d.RunIters
// carries one, so the same spec exercises the cross-phase prior there.
func equivSpecs() []Spec {
	return []Spec{DPASpec(8), DPASpec(8, WithPlanner()), CachingSpec(), BlockingSpec()}
}

// engineCase is one engine configuration a test sweeps: the engine kind
// plus the parallel engine's worker count (0 = auto; ignored by
// Sequential). Tests apply it to a machine config with on.
type engineCase struct {
	kind    EngineKind
	workers int
}

var (
	seqEngine = engineCase{kind: Sequential}
	parEngine = engineCase{kind: Parallel}
)

// on returns mcfg set to run under e.
func (e engineCase) on(mcfg MachineConfig) MachineConfig {
	mcfg.Engine = e.kind
	mcfg.EngineTuning = EngineTuning{Workers: e.workers}
	return mcfg
}

// String names the case for subtests and failures, e.g. "parallel(workers=4)".
func (e engineCase) String() string {
	if e.kind == Parallel && e.workers > 0 {
		return fmt.Sprintf("parallel(workers=%d)", e.workers)
	}
	return e.kind.String()
}

// equivEngines returns the engine configurations every equivalence suite
// sweeps: the sequential baseline first, then the parallel engine at worker
// counts 1, 2, NumCPU, and nodes (one simulated process per node),
// deduplicated after clamping to [1, nodes]. Index 0 is always the baseline.
func equivEngines(nodes int) []engineCase {
	engines := []engineCase{seqEngine}
	seen := map[int]bool{}
	for _, w := range []int{1, 2, runtime.NumCPU(), nodes} {
		if w > nodes {
			w = nodes
		}
		if w < 1 || seen[w] {
			continue
		}
		seen[w] = true
		engines = append(engines, engineCase{Parallel, w})
	}
	return engines
}

// treesumProgram is the recursive tree-sum pointer program from
// examples/treesum, small enough to run under every runtime in a test.
func treesumProgram() *pdg.Program {
	return &pdg.Program{
		Entry: "main",
		Funcs: map[string]*pdg.Func{
			"main": {Name: "main", Params: []string{"root"}, Body: []pdg.Stmt{
				pdg.Call{Fn: "walk", Args: []pdg.Expr{pdg.V{Name: "root"}}},
			}},
			"walk": {Name: "walk", Params: []string{"t"}, Body: []pdg.Stmt{
				pdg.GLoad{Dst: "v", Ptr: "t", Field: "val"},
				pdg.Work{Cost: 40, Uses: []string{"v"}},
				pdg.Accum{Target: "sum", E: pdg.V{Name: "v"}},
				pdg.GLoad{Dst: "l", Ptr: "t", Field: "left"},
				pdg.GLoad{Dst: "r", Ptr: "t", Field: "right"},
				pdg.If{Cond: pdg.Not{E: pdg.IsNil{E: pdg.V{Name: "l"}}},
					Then: []pdg.Stmt{pdg.Call{Fn: "walk", Args: []pdg.Expr{pdg.V{Name: "l"}}}}},
				pdg.If{Cond: pdg.Not{E: pdg.IsNil{E: pdg.V{Name: "r"}}},
					Then: []pdg.Stmt{pdg.Call{Fn: "walk", Args: []pdg.Expr{pdg.V{Name: "r"}}}}},
			}},
		},
	}
}

func buildEquivTree(space *Space, depth int) Ptr {
	var mk func(d, id int) Ptr
	mk = func(d, id int) Ptr {
		if d == 0 {
			return Nil
		}
		rec := &pdg.Record{F: map[string]pdg.Value{
			"val":   float64(id),
			"left":  mk(d-1, 2*id),
			"right": mk(d-1, 2*id+1),
		}}
		return space.Alloc(id%space.Nodes(), rec)
	}
	return mk(depth, 1)
}

func TestEngineEquivalenceTreesum(t *testing.T) {
	const nodes = 4
	const depth = 8
	prog := treesumProgram()
	compiled := tpart.Compile(prog, nil)
	if _, err := tpart.Validate(compiled); err != nil {
		t.Fatal(err)
	}
	space := NewSpace(nodes)
	root := buildEquivTree(space, depth)
	want := pdg.RunSeq(prog, space, root)

	for _, spec := range equivSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			engines := equivEngines(nodes)
			runs := make([]RunStats, len(engines))
			for i, eng := range engines {
				res := pdg.NewResult()
				runs[i] = RunPhase(eng.on(DefaultT3D(nodes)), space, spec,
					func(rt Runtime, ep *Endpoint, nd *Node) {
						if nd.ID() == 0 {
							tpart.Run(compiled, rt, nd, res, root)
						}
					})
				if res.Acc["sum"] != want.Acc["sum"] {
					t.Fatalf("%v: sum %v, want %v", eng, res.Acc["sum"], want.Acc["sum"])
				}
			}
			for i := 1; i < len(engines); i++ {
				if diff := runs[0].Diff(runs[i]); diff != "" {
					t.Fatalf("sequential vs %v stats diverge: %s", engines[i], diff)
				}
			}
		})
	}
}

func TestEngineEquivalenceEM3D(t *testing.T) {
	const nodes = 4
	const iters = 2
	prm := em3d.DefaultParams(160)
	for _, spec := range equivSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			engines := equivEngines(nodes)
			runs := make([]RunStats, len(engines))
			vals := make([]string, len(engines))
			for i, eng := range engines {
				mcfg := eng.on(DefaultT3D(nodes))
				run, g := em3d.RunIters(mcfg, spec, prm, iters)
				runs[i] = run
				e, h := g.Values()
				vals[i] = fmt.Sprintf("%x %x", e, h)
			}
			for i := 1; i < len(engines); i++ {
				if vals[i] != vals[0] {
					t.Fatalf("graph values diverge between sequential and %v", engines[i])
				}
				if diff := runs[0].Diff(runs[i]); diff != "" {
					t.Fatalf("sequential vs %v stats diverge: %s", engines[i], diff)
				}
			}
		})
	}
}

// TestRunPhaseValidationOption exercises WithValidation: the cross-engine
// check must pass on a deterministic phase.
func TestRunPhaseValidationOption(t *testing.T) {
	const nodes = 3
	space := NewSpace(nodes)
	ptrs := make([]Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, &pdg.Record{F: map[string]pdg.Value{"val": float64(i)}})
	}
	run := RunPhase(DefaultT3D(nodes), space, DPASpec(4),
		func(rt Runtime, ep *Endpoint, nd *Node) {
			for _, p := range ptrs {
				rt.Spawn(p, func(o Object) {})
			}
			rt.Drain()
		}, WithValidation())
	if run.Err != nil {
		t.Fatalf("validated run: %v", run.Err)
	}
	if run.Makespan <= 0 {
		t.Fatal("no progress")
	}
}

// TestRunPhaseRejectsInvalidSpec: a spec Validate rejects (the planner's
// owner-major queue cannot honour LIFO) returns a typed error instead of
// panicking, and simulates nothing.
func TestRunPhaseRejectsInvalidSpec(t *testing.T) {
	ran := false
	spec := DPASpec(4, WithPlanner())
	spec.Core.LIFO = true
	run := RunPhase(DefaultT3D(1), NewSpace(1), spec,
		func(rt Runtime, ep *Endpoint, nd *Node) { ran = true })
	if !errors.Is(run.Err, ErrBadSpec) {
		t.Fatalf("Err = %v, want ErrBadSpec", run.Err)
	}
	if ran || run.Makespan != 0 {
		t.Fatalf("rejected spec simulated anyway: ran=%v makespan=%d", ran, run.Makespan)
	}
}
