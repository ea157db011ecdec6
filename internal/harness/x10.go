package harness

import (
	"dpa/internal/driver"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/stats"
)

// X10: the graph-analytics workload family. BFS, PageRank, and connected
// components are the irregular pointer-chasing computations DPA targets in
// their purest form: every neighbor access crosses a global pointer, there
// is almost no arithmetic to hide communication behind, and the footprint is
// data-dependent. Each level or iteration is one phase, so the planner's
// cross-phase prior batches every repeated phase's first requests from the
// previous phase's per-owner fetch totals. The questions: how much does the
// planner gain over static DPA(50) on graphs, and does it hold refetches at
// exactly zero?

func init() {
	register(Experiment{ID: "X10", Title: "Graph analytics: static DPA vs planner (extension)", Run: runX10})
}

func runX10(s *Session) {
	const nodes = 16
	prm := graph.DefaultParams(s.W.GraphVertices)
	s.printf("BFS, PageRank, and connected components on an RMAT graph of %d\n", prm.Vertices)
	s.printf("vertices (avg degree %d) over %d nodes, under static DPA(50) and\n", prm.Degree, nodes)
	s.printf("the planner. The planner row must report exactly 0 refetches.\n\n")

	apps := []struct {
		name string
		run  func(spec driver.Spec) stats.Run
	}{
		{"BFS", func(spec driver.Spec) stats.Run {
			r, _ := graph.RunBFS(machine.DefaultT3D(nodes), spec, prm, 0)
			return r
		}},
		{"PageRank", func(spec driver.Spec) stats.Run {
			r, _ := graph.RunPageRank(machine.DefaultT3D(nodes), spec, prm, 3)
			return r
		}},
		{"CC", func(spec driver.Spec) stats.Run {
			r, _ := graph.RunCC(machine.DefaultT3D(nodes), spec, prm)
			return r
		}},
	}

	for _, app := range apps {
		s.printf("%s, %d vertices\n", app.name, prm.Vertices)
		s.printf("%-14s %12s %10s %10s %10s %12s %10s\n",
			"runtime", "time", "fetches", "reuses", "reqmsgs", "peak copies", "refetches")
		row := func(spec driver.Spec) stats.Run {
			r := app.run(spec)
			s.printf("%-14s %10.2fms %10d %10d %10d %10.1fKB %10d\n",
				spec, s.Sec(r)*1e3, r.RT.Fetches, r.RT.Reuses, r.RT.ReqMsgs,
				float64(r.RT.PeakArrivedBytes)/1024, r.RT.Refetches)
			return r
		}
		st := row(driver.DPASpec(50))
		pr := row(driver.DPASpec(50, driver.WithPlanner()))
		if pr.RT.Refetches != 0 {
			s.printf("REFETCH REGRESSION: planner refetched %d times\n", pr.RT.Refetches)
		}
		s.printf("planner vs DPA(50): time %+.2f%%, request messages %+.2f%%\n\n",
			(float64(pr.Makespan)/float64(st.Makespan)-1)*100,
			(float64(pr.RT.ReqMsgs)/float64(st.RT.ReqMsgs)-1)*100)
	}
}
