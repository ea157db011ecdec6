package dpa

// Planner determinism: every decision of the predictive communication
// planner — strip sizes from the cost model, per-destination aggregation
// limits from the owner histogram, reuse-region releases — is a pure
// function of simulated-time state, so planned runs must be bit-identical
// across engines, worker counts, repeats, and seeded fault injection.

import (
	"fmt"
	"testing"

	"dpa/internal/bh"
	"dpa/internal/em3d"
	"dpa/internal/nbody"
)

// determinismRuns runs the workload once per engine per repeat and asserts
// all run tables (counters, makespan, and strip trace) are identical.
func determinismRuns(t *testing.T, name string, faults bool, run func(MachineConfig) RunStats) RunStats {
	t.Helper()
	var ref RunStats
	var refName string
	for _, eng := range equivEngines(4) {
		for rep := 0; rep < 2; rep++ {
			mcfg := eng.on(DefaultT3D(4))
			if faults {
				mcfg.Faults = DefaultFaults(7, 0.05)
			}
			r := run(mcfg)
			if r.Err != nil {
				t.Fatalf("%s %v rep%d: unexpected degradation: %v", name, eng, rep, r.Err)
			}
			if refName == "" {
				ref, refName = r, fmt.Sprintf("%v rep0", eng)
				continue
			}
			if diff := ref.Diff(r); diff != "" {
				t.Fatalf("%s: %v rep%d diverges from %s: %s", name, eng, rep, refName, diff)
			}
		}
	}
	return ref
}

func TestPlannerDeterminismEM3D(t *testing.T) {
	prm := em3d.DefaultParams(160)
	spec := DPASpec(8, WithPlanner())
	for _, faults := range []bool{false, true} {
		name := "fault-free"
		if faults {
			name = "5% loss"
		}
		r := determinismRuns(t, name, faults, func(mcfg MachineConfig) RunStats {
			run, _ := em3d.RunIters(mcfg, spec, prm, 2)
			return run
		})
		if r.RT.PlanStrips == 0 {
			t.Errorf("%s: planner never ran (PlanStrips=0): %+v", name, r.RT)
		}
		if !faults && r.RT.Refetches != 0 {
			t.Errorf("%s: planned run refetched %d objects, want 0", name, r.RT.Refetches)
		}
		if faults && (r.Faults.Dropped == 0 || r.Faults.Retransmits == 0) {
			t.Errorf("fault counters inactive: %+v", r.Faults)
		}
	}
}

func TestPlannerDeterminismBarnesHut(t *testing.T) {
	bodies := nbody.Plummer(256, 42)
	p := bh.DefaultParams()
	spec := DPASpec(8, WithPlanner())
	r := determinismRuns(t, "fault-free", false, func(mcfg MachineConfig) RunStats {
		return bh.RunSteps(mcfg, spec, bodies, 1, p)
	})
	if r.RT.Refetches != 0 {
		t.Errorf("planned run refetched %d objects, want 0", r.RT.Refetches)
	}
}

// TestPlannerOffBitIdentical pins the compatibility contract: a spec without
// WithPlanner runs none of the planner's code paths. em3d.RunIters always
// carries a driver.History, so the static row also proves the history alone
// moves nothing.
func TestPlannerOffBitIdentical(t *testing.T) {
	prm := em3d.DefaultParams(160)
	r, _ := em3d.RunIters(DefaultT3D(4), DPASpec(8), prm, 2)
	if r.RT.PlanStrips != 0 || r.RT.PlanMispredicts != 0 || r.RT.RegionReleases != 0 ||
		r.RT.PlanPriorHits != 0 || r.RT.StripGrows != 0 || r.RT.FinalStrip != 0 {
		t.Errorf("planner counters moved without WithPlanner: %+v", r.RT)
	}
}
