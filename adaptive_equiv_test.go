package dpa

// Corrective-controller determinism. When a planned strip overflows its
// memory budget the planner hands the next strip size to the bounded
// reactive controller. Those steps are pure functions of simulated-time
// state too, so a run whose strips the controller resizes — including its
// grow/shrink trace — must be bit-identical across engines, repeats, and
// seeded faults. A copy budget of 1 KB forces the hand-off on both apps.

import (
	"testing"

	"dpa/internal/bh"
	"dpa/internal/em3d"
	"dpa/internal/nbody"
)

// correctedSpec is a planned spec whose tiny copy budget makes the memory
// model mispredict, so the controller steps in.
func correctedSpec() Spec {
	spec := DPASpec(8, WithPlanner())
	spec.Core.StripMin, spec.Core.MemBudget = 1, 1<<10
	return spec
}

func TestAdaptiveDeterminismEM3D(t *testing.T) {
	prm := em3d.DefaultParams(160)
	spec := correctedSpec()
	for _, faults := range []bool{false, true} {
		name := "fault-free"
		if faults {
			name = "5% loss"
		}
		r := determinismRuns(t, name, faults, func(mcfg MachineConfig) RunStats {
			run, _ := em3d.RunIters(mcfg, spec, prm, 2)
			return run
		})
		if r.RT.PlanMispredicts == 0 || r.RT.StripShrinks == 0 {
			t.Errorf("%s: controller never corrected a strip: %+v", name, r.RT)
		}
		if faults && (r.Faults.Dropped == 0 || r.Faults.Retransmits == 0) {
			t.Errorf("fault counters inactive: %+v", r.Faults)
		}
	}
}

func TestAdaptiveDeterminismBarnesHut(t *testing.T) {
	bodies := nbody.Plummer(256, 42)
	p := bh.DefaultParams()
	spec := correctedSpec()
	r := determinismRuns(t, "fault-free", false, func(mcfg MachineConfig) RunStats {
		return bh.RunSteps(mcfg, spec, bodies, 1, p)
	})
	if r.RT.PlanMispredicts == 0 || r.RT.StripShrinks == 0 {
		t.Errorf("controller never corrected a strip: %+v", r.RT)
	}
}
