package dpa

// Golden run tables: the simulated output of a fixed, fast matrix is pinned
// byte for byte in testdata/golden_tables.txt. Cross-engine equality cannot
// see a change that shifts both engines the same way; this file can. After a
// deliberate change to simulated behaviour, regenerate with
//
//	go test -run TestGoldenTables -update .
//
// and explain the regeneration in CHANGES.md.

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpa/internal/bh"
	"dpa/internal/em3d"
	"dpa/internal/fmm"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_tables.txt from the current code")

const goldenPath = "testdata/golden_tables.txt"

// goldenApps are the six workloads at test size. Every app except the
// one-step BH force phase runs several phases, so the cross-phase paths are
// pinned too.
func goldenApps() []struct {
	name string
	run  func(mcfg machine.Config, spec Spec) stats.Run
} {
	gp := graph.DefaultParams(224)
	gp.Degree = 6
	return []struct {
		name string
		run  func(mcfg machine.Config, spec Spec) stats.Run
	}{
		{"bh", func(mcfg machine.Config, spec Spec) stats.Run {
			return bh.RunSteps(mcfg, spec, nbody.Plummer(256, 42), 2, bh.DefaultParams())
		}},
		{"fmm", func(mcfg machine.Config, spec Spec) stats.Run {
			run, _ := fmm.RunSteps(mcfg, spec, nbody.Plummer(128, 7), 2, fmm.DefaultParams(128))
			return run
		}},
		{"em3d", func(mcfg machine.Config, spec Spec) stats.Run {
			run, _ := em3d.RunIters(mcfg, spec, em3d.DefaultParams(320), 2)
			return run
		}},
		{"bfs", func(mcfg machine.Config, spec Spec) stats.Run {
			run, _ := graph.RunBFS(mcfg, spec, gp, 0)
			return run
		}},
		{"pagerank", func(mcfg machine.Config, spec Spec) stats.Run {
			run, _ := graph.RunPageRank(mcfg, spec, gp, 3)
			return run
		}},
		{"cc", func(mcfg machine.Config, spec Spec) stats.Run {
			run, _ := graph.RunCC(mcfg, spec, gp)
			return run
		}},
	}
}

func goldenFaults() []struct {
	name string
	cfg  machine.FaultConfig
} {
	crashy := machine.DefaultFaults(7, 0.03)
	crashy.CrashRate = 0.5
	crashy.CrashAt = 20_000
	return []struct {
		name string
		cfg  machine.FaultConfig
	}{
		{"fault-free", machine.FaultConfig{}},
		{"loss5", machine.DefaultFaults(7, 0.05)},
		{"crashy", crashy},
	}
}

// goldenTables renders every row of the matrix: each app under DPA(50) and
// the planner, plus caching and blocking on BH, under each fault regime.
func goldenTables() string {
	var b strings.Builder
	for _, app := range goldenApps() {
		specs := []Spec{DPASpec(50), DPASpec(50, WithPlanner())}
		if app.name == "bh" {
			specs = append(specs, CachingSpec(), BlockingSpec())
		}
		for _, spec := range specs {
			for _, fr := range goldenFaults() {
				mcfg := DefaultT3D(4)
				mcfg.Faults = fr.cfg
				run := app.run(mcfg, spec)
				fmt.Fprintf(&b, "=== %s %s %s\n%s", app.name, spec, fr.name, run.Table(mcfg.ClockHz))
				fmt.Fprintf(&b, "makespan  %d cycles\n", run.Makespan)
			}
		}
	}
	return b.String()
}

func TestGoldenTables(t *testing.T) {
	got := goldenTables()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	row := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "=== ") {
			row = w
		}
		if g != w {
			t.Fatalf("golden mismatch in row %q at line %d:\n got  %q\n want %q\n(regenerate with -update after a deliberate change)",
				row, i+1, g, w)
		}
	}
}
