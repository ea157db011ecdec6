package driver

import (
	"errors"
	"sync/atomic"
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

type thing struct{ id int }

func (thing) ByteSize() int { return 8 }

func TestSpecStrings(t *testing.T) {
	if DPASpec(300).String() != "DPA(300)" {
		t.Error(DPASpec(300).String())
	}
	if CachingSpec().String() != "Caching" {
		t.Error(CachingSpec().String())
	}
	if BlockingSpec().String() != "Blocking" {
		t.Error(BlockingSpec().String())
	}
}

func TestNewRuntimeKinds(t *testing.T) {
	for _, spec := range []Spec{DPASpec(10), CachingSpec(), BlockingSpec()} {
		protos := NewProtos()
		space := gptr.NewSpace(1)
		m := machine.New(machine.DefaultT3D(1))
		m.Run(func(nd *machine.Node) {
			ep := fm.NewEP(protos.Net, nd)
			rt, err := protos.NewRuntime(spec, ep, space)
			if err != nil {
				t.Errorf("%s: %v", spec, err)
			}
			if rt == nil {
				t.Errorf("%s: nil runtime", spec)
			}
		})
	}
}

func TestUnknownKindRejected(t *testing.T) {
	protos := NewProtos()
	space := gptr.NewSpace(1)
	m := machine.New(machine.DefaultT3D(1))
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(protos.Net, nd)
		if _, err := protos.NewRuntime(Spec{Kind: "bogus"}, ep, space); err == nil {
			t.Error("expected error for unknown kind")
		}
	})
}

func TestNewRuntimeRejectsInvalidConfig(t *testing.T) {
	protos := NewProtos()
	space := gptr.NewSpace(1)
	m := machine.New(machine.DefaultT3D(1))
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(protos.Net, nd)
		bad := DPASpec(10)
		bad.Core.AggLimit = -3
		if _, err := protos.NewRuntime(bad, ep, space); err == nil {
			t.Error("expected error for negative AggLimit")
		}
		badCache := CachingSpec()
		badCache.Caching.Capacity = -1
		if _, err := protos.NewRuntime(badCache, ep, space); err == nil {
			t.Error("expected error for negative cache capacity")
		}
	})
}

func TestSpecOptions(t *testing.T) {
	s := DPASpec(300, WithAggLimit(4), WithPipeline(false), WithPlanner())
	if s.Core.Strip != 300 || s.Core.AggLimit != 4 || s.Core.Pipeline || !s.Core.Planner {
		t.Fatalf("option application: %+v", s.Core)
	}
}

func TestRunPhaseMergesAllNodes(t *testing.T) {
	const nodes = 4
	space := gptr.NewSpace(nodes)
	// Each node spawns one local thread: the merged stats must count all.
	ptrs := make([]gptr.Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, thing{id: i})
	}
	run := RunPhase(machine.DefaultT3D(nodes), space, DPASpec(10),
		func(rt Runtime, ep *fm.EP, nd *machine.Node) {
			rt.Spawn(ptrs[nd.ID()], func(o gptr.Object) {})
			rt.Drain()
		})
	if run.RT.ThreadsRun != nodes {
		t.Fatalf("merged ThreadsRun = %d, want %d", run.RT.ThreadsRun, nodes)
	}
	if len(run.Nodes) != nodes {
		t.Fatalf("breakdowns for %d nodes", len(run.Nodes))
	}
}

// TestRunPhaseEngineValue runs the same phase under every engine
// configuration machine.Config can select; all must agree.
func TestRunPhaseEngineValue(t *testing.T) {
	const nodes = 4
	space := gptr.NewSpace(nodes)
	ptrs := make([]gptr.Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, thing{id: i})
	}
	phase := func(kind sim.EngineKind, workers int) stats.Run {
		mcfg := machine.DefaultT3D(nodes)
		mcfg.Engine = kind
		mcfg.EngineTuning = sim.Tuning{Workers: workers}
		return RunPhase(mcfg, space, DPASpec(10),
			func(rt Runtime, ep *fm.EP, nd *machine.Node) {
				for _, p := range ptrs {
					rt.Spawn(p, func(o gptr.Object) {})
				}
				rt.Drain()
			})
	}
	base := phase(sim.Sequential, 0)
	for _, workers := range []int{0, 2, nodes} {
		if diff := base.Diff(phase(sim.Parallel, workers)); diff != "" {
			t.Fatalf("parallel workers=%d diverges from sequential: %s", workers, diff)
		}
	}
	par := phase(sim.Parallel, 2)
	if par.Host == nil || par.Host.Workers != 2 {
		t.Fatalf("parallel run host counters = %+v, want 2 workers", par.Host)
	}
	if base.Host != nil {
		t.Fatal("sequential run carries host counters")
	}
}

// TestRunPhaseRejectsBadTuning: an out-of-range worker count must surface as
// a typed error on a run that simulated nothing, not a panic or a hang.
func TestRunPhaseRejectsBadTuning(t *testing.T) {
	space := gptr.NewSpace(2)
	mcfg := machine.DefaultT3D(2)
	mcfg.Engine = sim.Parallel
	mcfg.EngineTuning.Workers = 3
	ran := false
	run := RunPhase(mcfg, space, DPASpec(10),
		func(rt Runtime, ep *fm.EP, nd *machine.Node) { ran = true })
	if !errors.Is(run.Err, sim.ErrBadTuning) {
		t.Fatalf("Err = %v, want an ErrBadTuning error", run.Err)
	}
	if ran || len(run.Nodes) != 0 {
		t.Fatal("rejected config still simulated the phase")
	}
}

// TestRunPhaseValidationDiverged: a body that charges differently on its
// second execution makes the WithValidation check run diverge, which must
// surface as ErrEngineDiverged on the primary run rather than a panic.
func TestRunPhaseValidationDiverged(t *testing.T) {
	const nodes = 2
	var calls atomic.Int64
	run := RunPhase(machine.DefaultT3D(nodes), gptr.NewSpace(nodes), DPASpec(10),
		func(rt Runtime, ep *fm.EP, nd *machine.Node) {
			// The first nodes calls are the primary run, the rest the check.
			n := calls.Add(1) - 1
			nd.Charge(sim.Compute, sim.Time(100+100*(n/nodes)))
		}, WithValidation())
	if calls.Load() != 2*nodes {
		t.Fatalf("body ran %d times, want %d", calls.Load(), 2*nodes)
	}
	if !errors.Is(run.Err, ErrEngineDiverged) {
		t.Fatalf("Err = %v, want ErrEngineDiverged", run.Err)
	}
	if len(run.Nodes) != nodes {
		t.Fatalf("primary run has %d node breakdowns, want %d", len(run.Nodes), nodes)
	}

	// A machine the parallel engine cannot run (zero lookahead) keeps the
	// sequential primary run and reports the check engine's config error.
	mcfg := machine.DefaultT3D(nodes)
	mcfg.SendOverhead, mcfg.LatencyBase = 0, 0
	run = RunPhase(mcfg, gptr.NewSpace(nodes), DPASpec(10),
		func(rt Runtime, ep *fm.EP, nd *machine.Node) {}, WithValidation())
	if run.Err == nil || len(run.Nodes) != nodes {
		t.Fatalf("zero-lookahead validation: Err = %v, %d nodes", run.Err, len(run.Nodes))
	}
}

// TestRunPhaseDeadlockIsTypedError: on a fault-free machine, node 0 keeps
// waiting for a message after the others' barrier arrivals, and nobody
// sends one while they block in the closing barrier. Both engines must
// return the run with a *sim.DeadlockError in its Err instead of panicking.
func TestRunPhaseDeadlockIsTypedError(t *testing.T) {
	const nodes = 3
	for _, kind := range []sim.EngineKind{sim.Sequential, sim.Parallel} {
		mcfg := machine.DefaultT3D(nodes)
		mcfg.Engine = kind
		run := RunPhase(mcfg, gptr.NewSpace(nodes), DPASpec(10),
			func(rt Runtime, ep *fm.EP, nd *machine.Node) {
				for nd.ID() == 0 {
					ep.WaitAndDispatch()
				}
			})
		if !errors.Is(run.Err, sim.ErrDeadlock) {
			t.Fatalf("%v: Err = %v, want an ErrDeadlock error", kind, run.Err)
		}
		if len(run.Nodes) != nodes {
			t.Fatalf("%v: deadlocked run has %d node breakdowns, want %d", kind, len(run.Nodes), nodes)
		}
	}
}

func TestRunPhaseCrossTraffic(t *testing.T) {
	const nodes = 3
	space := gptr.NewSpace(nodes)
	ptrs := make([]gptr.Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, thing{id: i})
	}
	for _, spec := range []Spec{DPASpec(10), CachingSpec(), BlockingSpec()} {
		counts := make([]int, nodes)
		RunPhase(machine.DefaultT3D(nodes), space, spec,
			func(rt Runtime, ep *fm.EP, nd *machine.Node) {
				// Every node reads every object, local and remote.
				me := nd.ID()
				for _, p := range ptrs {
					rt.Spawn(p, func(o gptr.Object) { counts[me]++ })
				}
				rt.Drain()
			})
		for i, c := range counts {
			if c != nodes {
				t.Errorf("%s: node %d ran %d threads, want %d", spec, i, c, nodes)
			}
		}
	}
}
