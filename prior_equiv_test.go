package dpa

// Cross-phase prior determinism: in planner mode the driver folds each
// phase's per-owner fetch totals at the seam and the next phase of the same
// kind batches its first requests from them, so multi-phase planned runs
// must stay bit-identical across engines, worker counts, repeats, seeded
// loss, and crash lotteries — the same contract as single-phase planned runs
// (planner_equiv_test.go).

import (
	"testing"

	"dpa/internal/bh"
	"dpa/internal/em3d"
	"dpa/internal/nbody"
	"dpa/internal/stats"
)

func TestPriorDeterminismEM3D(t *testing.T) {
	prm := em3d.DefaultParams(160)
	spec := DPASpec(8, WithPlanner())
	for _, faults := range []bool{false, true} {
		name := "fault-free"
		if faults {
			name = "5% loss"
		}
		r := determinismRuns(t, name, faults, func(mcfg MachineConfig) RunStats {
			run, _ := em3d.RunIters(mcfg, spec, prm, 3)
			return run
		})
		if r.RT.PlanPriorHits == 0 {
			t.Errorf("%s: no prior hits over six phases: %+v", name, r.RT)
		}
		if !faults && r.RT.Refetches != 0 {
			t.Errorf("%s: prior run refetched %d objects, want 0", name, r.RT.Refetches)
		}
		if faults && (r.Faults.Dropped == 0 || r.Faults.Retransmits == 0) {
			t.Errorf("fault counters inactive: %+v", r.Faults)
		}
	}
}

func TestPriorDeterminismBarnesHut(t *testing.T) {
	bodies := nbody.Plummer(256, 42)
	p := bh.DefaultParams()
	spec := DPASpec(8, WithPlanner())
	r := determinismRuns(t, "fault-free", false, func(mcfg MachineConfig) RunStats {
		return bh.RunSteps(mcfg, spec, bodies, 2, p)
	})
	if r.RT.PlanPriorHits == 0 {
		t.Errorf("second force phase never hit the prior: %+v", r.RT)
	}
	if r.RT.Refetches != 0 {
		t.Errorf("prior run refetched %d objects, want 0", r.RT.Refetches)
	}
}

// TestPriorWarmStartsSecondPhase pins the prior's schedule: the first phase
// of a kind is cold by definition (there is no history to read), and every
// phase of that kind after it must batch from the fold. BH checks the prior
// survives a rebuilt iteration space (the tree is rebuilt every step).
func TestPriorWarmStartsSecondPhase(t *testing.T) {
	bodies := nbody.Plummer(192, 42)
	p := bh.DefaultParams()
	spec := DPASpec(8, WithPlanner())
	steps := func(n int) stats.Run {
		return bh.RunSteps(DefaultT3D(4), spec, bodies, n, p)
	}
	if r := steps(1); r.RT.PlanPriorHits != 0 {
		t.Errorf("single (cold) phase claimed %d prior hits, want 0", r.RT.PlanPriorHits)
	}
	if r := steps(2); r.RT.PlanPriorHits == 0 {
		t.Errorf("second force phase never hit the prior: %+v", r.RT)
	}

	prm := em3d.DefaultParams(160)
	iters := func(n int) stats.Run {
		r, _ := em3d.RunIters(DefaultT3D(4), spec, prm, n)
		return r
	}
	// One iteration is one E and one H phase — different kinds, both cold.
	if r := iters(1); r.RT.PlanPriorHits != 0 {
		t.Errorf("first E+H phases claimed %d prior hits, want 0", r.RT.PlanPriorHits)
	}
	if r := iters(2); r.RT.PlanPriorHits == 0 {
		t.Errorf("repeated E/H phases never hit the prior: %+v", r.RT)
	}
}

// TestPriorCrashDeterminism runs the multi-phase planner checkpoint workload
// (ckApps' em3d-prior entry) under the loss + crash-lottery fault config:
// partial results, crash errors, and the prior counters must be
// bit-identical across engines and repeats.
func TestPriorCrashDeterminism(t *testing.T) {
	app := ckApps()[3] // em3d-prior
	runs := make([]stats.Run, 0, 3)
	for _, eng := range []engineCase{seqEngine, seqEngine, parEngine} {
		runs = append(runs, app.run(ckConfig(eng, true)))
	}
	for i := 1; i < len(runs); i++ {
		if diff := runs[0].Diff(runs[i]); diff != "" {
			t.Fatalf("crash run %d diverges: %s", i, diff)
		}
	}
	if runs[0].Faults.Crashes == 0 {
		t.Fatalf("crash schedule inactive: %+v", runs[0].Faults)
	}
}
