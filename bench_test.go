package dpa

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md for the experiment index). Each benchmark regenerates its
// table/figure on the scaled workload and reports the key simulated-time
// metrics; run `go run ./cmd/paper -full` for the paper-sized versions.

import (
	"io"
	"testing"

	"dpa/internal/bh"
	"dpa/internal/driver"
	"dpa/internal/harness"
	"dpa/internal/machine"
	"dpa/internal/nbody"
)

// benchWorkload is the reduced problem size used by benchmarks.
func benchWorkload() harness.Workload {
	w := harness.Scaled()
	return w
}

// runExperiment executes one harness experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		s := harness.NewSession(benchWorkload(), io.Discard)
		e.Run(s)
	}
}

func BenchmarkT1_Sequential(b *testing.B)       { runExperiment(b, "T1") }
func BenchmarkT2_BHVersusCaching(b *testing.B)  { runExperiment(b, "T2") }
func BenchmarkT3_FMMVersusCaching(b *testing.B) { runExperiment(b, "T3") }
func BenchmarkT4_StripMemory(b *testing.B)      { runExperiment(b, "T4") }
func BenchmarkF1_BHBreakdown(b *testing.B)      { runExperiment(b, "F1") }
func BenchmarkF2_FMMBreakdown(b *testing.B)     { runExperiment(b, "F2") }
func BenchmarkF3_Speedups(b *testing.B)         { runExperiment(b, "F3") }
func BenchmarkF4_StripSweep(b *testing.B)       { runExperiment(b, "F4") }
func BenchmarkF5_Aggregation(b *testing.B)      { runExperiment(b, "F5") }
func BenchmarkF6_PollPlacement(b *testing.B)    { runExperiment(b, "F6") }

// Extension ablations (design choices beyond the paper's tables).
func BenchmarkX1_EM3DIntensity(b *testing.B)   { runExperiment(b, "X1") }
func BenchmarkX2_QueueDiscipline(b *testing.B) { runExperiment(b, "X2") }
func BenchmarkX3_CacheCapacity(b *testing.B)   { runExperiment(b, "X3") }
func BenchmarkX4_SequentialCache(b *testing.B) { runExperiment(b, "X4") }

// BenchmarkEngine compares host execution time of the simulation engines
// on the same workload: one Barnes-Hut step with 32 simulated nodes under
// DPA(50), sequentially and at a sweep of parallel worker counts. The
// results are bit-identical; only wall-clock differs. On a multi-core host
// the sharded parallel engine exploits the conservative lookahead window to
// run simulated nodes concurrently; on a single core it measures pure
// coordination overhead.
func BenchmarkEngine(b *testing.B) {
	w := nbody.Plummer(4096, 42)
	cases := []struct {
		name string
		eng  engineCase
	}{
		{"sequential", seqEngine},
		{"parallel", parEngine},
		{"parallel-w1", engineCase{Parallel, 1}},
		{"parallel-w2", engineCase{Parallel, 2}},
		{"parallel-w4", engineCase{Parallel, 4}},
		{"parallel-w8", engineCase{Parallel, 8}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			mcfg := c.eng.on(machine.DefaultT3D(32))
			for i := 0; i < b.N; i++ {
				bh.RunSteps(mcfg, driver.DPASpec(50), w, 1, bh.DefaultParams())
			}
		})
	}
}

// BenchmarkHeadline reports the paper's headline comparison (BH on 16
// nodes, DPA(50) vs caching) as simulated seconds per scheme.
func BenchmarkHeadline(b *testing.B) {
	w := benchWorkload()
	var dpaSec, cacheSec float64
	for i := 0; i < b.N; i++ {
		s := harness.NewSession(w, io.Discard)
		clk := s.Clock()
		dpaSec = clk.Seconds(s.BH(16, driver.DPASpec(50)).Makespan)
		cacheSec = clk.Seconds(s.BH(16, driver.CachingSpec()).Makespan)
	}
	b.ReportMetric(dpaSec, "simsec-dpa")
	b.ReportMetric(cacheSec, "simsec-caching")
}
