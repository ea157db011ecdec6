package main

import (
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"dpa/internal/bh"
	"dpa/internal/driver"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/stats"
)

// Small instances of the three workloads: the same configurations at a
// size a test can afford.
func smallInstances() map[string]instance {
	return map[string]instance{
		"bh-dpa":         newBH(3, 512, 8, nil, 0),
		"em3d-par2":      newEM3D(3, 1024, em3dNodes, nil, 0),
		"pagerank-lossy": newPageRank(3, 1024, prNodes, nil, 0),
	}
}

// runChecked runs inst once and judges it against first.
func runChecked(inst instance, first *stats.Run) (stats.Run, error) {
	r := inst.run(nil, 0)
	return r, judge(first, r, inst.check())
}

func TestSmallWorkloadsPass(t *testing.T) {
	for name, inst := range smallInstances() {
		inst.reference(nil, 0)
		first, err := runChecked(inst, nil)
		if err != nil {
			t.Fatalf("%s: first run failed: %v", name, err)
		}
		if _, err := runChecked(inst, &first); err != nil {
			t.Errorf("%s: repeat failed: %v", name, err)
		}
	}
}

// TestPerturbedOutputFails perturbs each workload's output just beyond its
// tolerance and expects the check to fail.
func TestPerturbedOutputFails(t *testing.T) {
	for name, inst := range smallInstances() {
		inst.reference(nil, 0)
		inst.run(nil, 0)
		if err := inst.check(); err != nil {
			t.Fatalf("%s: unperturbed output failed: %v", name, err)
		}
		switch in := inst.(type) {
		case *bhInstance:
			in.got[7][1] += 10 * bhTol * max(1, abs(in.want[7][1]))
		case *em3dInstance:
			in.gotH[5] += 10 * em3dTol * max(1, abs(in.wantH[5]))
		case *prInstance:
			in.got[9] += 10 * prTol
		}
		if err := inst.check(); err == nil {
			t.Errorf("%s: perturbed output passed the check", name)
		}
	}
}

func abs(x float64) float64 { return max(x, -x) }

// TestJudge shows that a run error and any simulated statistic that differs
// from the first run each count as a failure.
func TestJudge(t *testing.T) {
	inst := newBH(5, 256, 4, nil, 0)
	inst.reference(nil, 0)
	first, err := runChecked(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := first
	same.Nodes = slices.Clone(first.Nodes)
	if err := judge(&first, same, nil); err != nil {
		t.Fatalf("identical run judged failed: %v", err)
	}
	perturbed := []func(r *stats.Run){
		func(r *stats.Run) { r.Makespan++ },
		func(r *stats.Run) { r.Nodes[2].MsgsSent++ },
		func(r *stats.Run) { r.RT.PeakArrivedBytes++ },
		func(r *stats.Run) { r.Err = errors.New("node 3 unreachable") },
	}
	for i, perturb := range perturbed {
		r := first
		r.Nodes = slices.Clone(first.Nodes)
		perturb(&r)
		if err := judge(&first, r, nil); err == nil {
			t.Errorf("perturbation %d judged passed", i)
		}
	}
	if err := judge(&first, same, errors.New("force 3 off")); err == nil {
		t.Error("failed output check judged passed")
	}
}

// TestBHMatchesRunSteps pins the bh-dpa operation to the configuration
// dpabench runs: one step of bh.RunSteps from the same bodies.
func TestBHMatchesRunSteps(t *testing.T) {
	const seed, n, nodes = 11, 512, 8
	inst := newBH(seed, n, nodes, nil, 0)
	got := inst.run(nil, 0)
	want := bh.RunSteps(machine.DefaultT3D(nodes), driver.DPASpec(strip), nbody.Plummer(n, seed), 1, bh.DefaultParams())
	if d := want.Diff(got); d != "" {
		t.Fatalf("bh-dpa operation differs from bh.RunSteps: %s", d)
	}
}

// TestSeedFlows checks that the workload seed reaches every generator and
// the fault seed stays fixed.
func TestSeedFlows(t *testing.T) {
	a, b := newBH(1, 64, 4, nil, 0), newBH(2, 64, 4, nil, 0)
	if a.d.T.Bodies[0].Pos == b.d.T.Bodies[0].Pos {
		t.Error("bh: seeds 1 and 2 gave the same bodies")
	}
	if e := newEM3D(9, 64, 4, nil, 0); e.prm.Seed != 9 {
		t.Errorf("em3d: graph seed %d, want 9", e.prm.Seed)
	}
	p := newPageRank(9, 64, 4, nil, 0)
	if p.prm.Seed != 9 || p.mcfg.Faults.Seed != prFaultSeed {
		t.Errorf("pagerank: graph seed %d and fault seed %d, want 9 and %d", p.prm.Seed, p.mcfg.Faults.Seed, prFaultSeed)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "bh-dpa", "--trace", "2"},
		{"--workload", "bh-dpa", "--seconds", "0"},
		{"--workload", "bh-dpa", "extra"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code == 0 || out.Len() > 0 {
			t.Errorf("%q: exit %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// TestLoopMeasures runs the measurement loop on a small instance, untraced
// and then profiled, and checks what each operation records.
func TestLoopMeasures(t *testing.T) {
	inst := newPageRank(3, 1024, prNodes, nil, 0)
	inst.reference(nil, 0)
	tr := newTracer()
	ops, err := loop(inst, nil, time.Time{}, 1, tr, "run", plain)
	if err != nil {
		t.Fatal(err)
	}
	ops, err = loop(inst, ops, time.Time{}, 1, tr, "memory-run", peakMem)
	if err != nil {
		t.Fatal(err)
	}
	ops, err = loop(inst, ops, time.Time{}, 1, tr, "traced-run", profiled)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("%d operations, want 3", len(ops))
	}
	for i, o := range ops {
		if o.err != nil || o.host <= 0 || o.alloc <= 0 {
			t.Errorf("op %d: err %v, host %g s, alloc %g B", i, o.err, o.host, o.alloc)
		}
		if (i == 1) != (o.peak > 0) || (i == 2) != (o.profile != nil) {
			t.Errorf("op %d: peak %g and profile %v, want a peak for op 1 and a profile for op 2 only", i, o.peak, o.profile)
		}
	}
	runs, checks := 0, 0
	for _, s := range tr.spans {
		switch s.Name {
		case "graph.RunPageRank":
			runs++
		case "check":
			checks++
		}
		if s.Parent != 0 && !slices.Contains([]string{"run", "memory-run", "traced-run"}, tr.spans[s.Parent-1].Name) {
			t.Errorf("span %q nested under %q", s.Name, tr.spans[s.Parent-1].Name)
		}
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	if runs != 3 || checks != 3 {
		t.Errorf("%d run spans and %d check spans, want 3 each", runs, checks)
	}
}
