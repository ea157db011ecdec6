package main

import (
	"errors"
	"fmt"
	"math"

	"dpa/internal/bh"
	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fm"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Workload sizes. They are fixed: a later change may not resize them, or its
// numbers stop being comparable with the ones before it.
const (
	strip = 50 // DPA strip size of every workload

	bhBodies = 8192
	bhNodes  = 32

	em3dPerKind = 65536
	em3dNodes   = 64
	em3dIters   = 2
	em3dWorkers = 2

	prVertices  = 32768
	prDegree    = 8
	prNodes     = 16
	prIters     = 4
	prDropRate  = 0.05
	prDupRate   = 0.01
	prFaultSeed = 1 // kept apart from the workload seed: the fault schedule is part of the workload
)

// Output tolerances, relative to max(1, |want|) as in the apps' own tests.
const (
	bhTol   = 1e-9
	em3dTol = 1e-9
	prTol   = 1e-12
)

// workload is one fixed benchmark configuration. prepare generates and
// builds its inputs from the workload seed — the part setup_s times — and
// returns an instance that runs one operation, a complete simulated run, at
// a time.
type workload struct {
	name        string
	defaultSeed int64
	prepare     func(seed int64, tr *tracer, parent int) instance
}

// instance is a workload's built inputs.
type instance interface {
	// reference computes the host-side expected output, once per process.
	reference(tr *tracer, parent int)
	// run performs one operation and keeps its output for check.
	run(tr *tracer, parent int) stats.Run
	// check compares the last run's output with the reference.
	check() error
}

var workloads = []workload{
	{name: "bh-dpa", defaultSeed: 42, prepare: func(seed int64, tr *tracer, parent int) instance {
		return newBH(seed, bhBodies, bhNodes, tr, parent)
	}},
	{name: "em3d-par2", defaultSeed: 7, prepare: func(seed int64, tr *tracer, parent int) instance {
		return newEM3D(seed, em3dPerKind, em3dNodes, tr, parent)
	}},
	{name: "pagerank-lossy", defaultSeed: 42, prepare: func(seed int64, tr *tracer, parent int) instance {
		return newPageRank(seed, prVertices, prNodes, tr, parent)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bhInstance is the Barnes-Hut force phase under DPA(50) on the sequential
// engine: the paper's headline configuration.
type bhInstance struct {
	prm  bh.Params
	mcfg machine.Config
	spec driver.Spec
	d    *bh.Dist
	want [][3]float64
	got  [][3]float64
}

func newBH(seed int64, n, nodes int, tr *tracer, parent int) *bhInstance {
	b := &bhInstance{
		prm:  bh.DefaultParams(),
		mcfg: machine.DefaultT3D(nodes),
		spec: driver.DPASpec(strip),
	}
	var bodies []nbody.Body
	var t *bh.Tree
	tr.span(parent, "nbody.Plummer", func() { bodies = nbody.Plummer(n, seed) })
	tr.span(parent, "bh.Build", func() { t = bh.Build(bodies, b.prm.LeafCap) })
	tr.span(parent, "bh.Distribute", func() { b.d = bh.Distribute(t, nodes, b.prm.ReplDepth, nil) })
	return b
}

func (b *bhInstance) reference(tr *tracer, parent int) {
	tr.span(parent, "bh.SeqForces", func() { b.want = b.d.T.SeqForces(b.prm.Theta, b.prm.Eps) })
}

func (b *bhInstance) run(tr *tracer, parent int) stats.Run {
	b.got = make([][3]float64, len(b.d.T.Bodies))
	var r stats.Run
	tr.span(parent, "driver.RunPhase", func() {
		r = driver.RunPhase(b.mcfg, b.d.Space, b.spec, func(rt driver.Runtime, _ *fm.EP, nd *machine.Node) {
			bh.ForcePhase(rt, nd, b.d, b.prm, b.got, nil)
		})
	})
	return r
}

func (b *bhInstance) check() error { return closeVecs("force", b.got, b.want, bhTol) }

// em3dInstance is EM3D under the planner on the parallel engine with two
// workers. em3d.RunIters builds its own graph on every call, so the graph
// prepare builds is timed as set-up and then dropped.
type em3dInstance struct {
	prm          em3d.Params
	mcfg         machine.Config
	spec         driver.Spec
	wantE, wantH []float64
	gotE, gotH   []float64
}

func newEM3D(seed int64, perKind, nodes int, tr *tracer, parent int) *em3dInstance {
	prm := em3d.DefaultParams(perKind)
	prm.Seed = seed
	mcfg := machine.DefaultT3D(nodes)
	mcfg.Engine = sim.Parallel
	mcfg.EngineTuning = sim.Tuning{Workers: em3dWorkers}
	tr.span(parent, "em3d.Build", func() { em3d.Build(prm, nodes) })
	return &em3dInstance{prm: prm, mcfg: mcfg, spec: driver.DPASpec(strip, driver.WithPlanner())}
}

func (e *em3dInstance) reference(tr *tracer, parent int) {
	tr.span(parent, "em3d.SeqIterate", func() { e.wantE, e.wantH = em3d.SeqIterate(e.prm, e.mcfg.Nodes, em3dIters) })
}

func (e *em3dInstance) run(tr *tracer, parent int) stats.Run {
	var r stats.Run
	var g *em3d.Graph
	tr.span(parent, "em3d.RunIters", func() { r, g = em3d.RunIters(e.mcfg, e.spec, e.prm, em3dIters) })
	e.gotE, e.gotH = g.Values()
	return r
}

func (e *em3dInstance) check() error {
	return errors.Join(closeVals("E value", e.gotE, e.wantE, em3dTol), closeVals("H value", e.gotH, e.wantH, em3dTol))
}

// prInstance is PageRank under the planner with 5% message loss and 1%
// duplication, recovered by the fm reliability protocol.
type prInstance struct {
	prm       graph.Params
	mcfg      machine.Config
	spec      driver.Spec
	want, got []float64
}

func newPageRank(seed int64, vertices, nodes int, tr *tracer, parent int) *prInstance {
	prm := graph.DefaultParams(vertices)
	prm.Degree = prDegree
	prm.Seed = seed
	mcfg := machine.DefaultT3D(nodes)
	mcfg.Faults = machine.FaultConfig{
		FaultParams: sim.FaultParams{Seed: prFaultSeed, DropRate: prDropRate, DupRate: prDupRate},
		Reliable:    true,
	}
	tr.span(parent, "graph.Build", func() { graph.Build(prm, nodes) })
	return &prInstance{prm: prm, mcfg: mcfg, spec: driver.DPASpec(strip, driver.WithPlanner())}
}

func (p *prInstance) reference(tr *tracer, parent int) {
	tr.span(parent, "graph.SeqPageRank", func() { p.want = graph.SeqPageRank(p.prm, p.mcfg.Nodes, prIters) })
}

func (p *prInstance) run(tr *tracer, parent int) stats.Run {
	var r stats.Run
	tr.span(parent, "graph.RunPageRank", func() { r, p.got = graph.RunPageRank(p.mcfg, p.spec, p.prm, prIters) })
	return r
}

func (p *prInstance) check() error { return closeVals("rank", p.got, p.want, prTol) }

// within reports whether got matches want to tol relative to max(1, |want|).
// NaN never matches.
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

func closeVals(what string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !within(got[i], want[i], tol) {
			return fmt.Errorf("%s %d: %g, want %g (tolerance %g)", what, i, got[i], want[i], tol)
		}
	}
	return nil
}

func closeVecs(what string, got, want [][3]float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d vectors, want %d", what, len(got), len(want))
	}
	for i := range got {
		for d := range got[i] {
			if !within(got[i][d], want[i][d], tol) {
				return fmt.Errorf("%s %d[%d]: %g, want %g (tolerance %g)", what, i, d, got[i][d], want[i][d], tol)
			}
		}
	}
	return nil
}

// judge decides whether one operation failed: a run error (the lossy
// workload must recover fully), an output outside tolerance, or any
// simulated statistic differing from the first run of the process — the
// simulator is deterministic, so repeats must agree exactly.
func judge(first *stats.Run, r stats.Run, outErr error) error {
	if r.Err != nil {
		return fmt.Errorf("run error: %w", r.Err)
	}
	if outErr != nil {
		return outErr
	}
	if first != nil {
		if d := first.Diff(r); d != "" {
			return fmt.Errorf("simulated statistics differ from the first run: %s", d)
		}
	}
	return nil
}
