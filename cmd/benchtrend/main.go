// Command benchtrend prints the host-performance trajectory recorded by the
// tracked BENCH_*.json baselines (emitted by `dpabench -json`). Each file is
// one PR-era snapshot; benchtrend groups snapshots by workload (app, nodes,
// bodies, runtime), lines them up per benchmark within each group, and shows
// how ns/op, B/op, and allocs/op moved from the group's first snapshot —
// deltas across different workloads would be meaningless.
//
// A damaged snapshot never takes the trend down with it: files that are
// missing, truncated, or missing required fields are skipped with a warning
// on stderr, and benchtrend fails only when no usable snapshot remains.
//
// Usage:
//
//	benchtrend [file.json ...]    (default: BENCH_*.json in the working dir)
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dpa/internal/stats"
)

type report struct {
	App        string            `json:"app"`
	Nodes      int               `json:"nodes"`
	Bodies     int               `json:"bodies"`
	Runtime    string            `json:"runtime"`
	Flags      string            `json:"flags"`
	GoVersion  string            `json:"go_version"`
	Benchmarks []stats.HostBench `json:"benchmarks"`
}

// workload identifies the simulated configuration a snapshot measured;
// only snapshots with equal workloads are comparable. The runtime
// feature-flag set is part of the identity: a planner run and a static run
// simulate different schedules, so their host costs must not be lined
// up as one trend.
func (r report) workload() string {
	key := fmt.Sprintf("%s nodes=%d bodies=%d %s", r.App, r.Nodes, r.Bodies, r.Runtime)
	if r.Flags != "" {
		key += " [" + r.Flags + "]"
	}
	return key
}

type snapshot struct {
	file string
	report
}

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		var err error
		files, err = filepath.Glob("BENCH_*.json")
		if err != nil || len(files) == 0 {
			fmt.Fprintln(os.Stderr, "benchtrend: no BENCH_*.json files found")
			os.Exit(1)
		}
	}
	os.Exit(run(files, os.Stdout, os.Stderr))
}

// load reads one snapshot file, returning a descriptive error for every way a
// snapshot can be unusable: unreadable, unparseable (truncated JSON), or
// parsed but missing the fields the trend needs (a workload identity and at
// least one benchmark row).
func load(f string) (report, error) {
	var r report
	data, err := os.ReadFile(f)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %v", f, err)
	}
	if r.App == "" && r.Runtime == "" {
		return r, fmt.Errorf("%s: no workload identity (app/runtime fields missing)", f)
	}
	if len(r.Benchmarks) == 0 {
		return r, fmt.Errorf("%s: no benchmarks recorded", f)
	}
	return r, nil
}

// run prints the trend for the given snapshot files and returns the process
// exit code. Unusable files are skipped with a warning; only an empty usable
// set is fatal, so one corrupt baseline cannot hide the rest of the history.
func run(files []string, out, errw io.Writer) int {
	files = append([]string(nil), files...)
	sort.Strings(files)

	// Group snapshots by workload, preserving file order within and across
	// groups (a group is anchored where its workload first appears).
	var order []string
	groups := make(map[string][]snapshot)
	skipped := 0
	for _, f := range files {
		r, err := load(f)
		if err != nil {
			fmt.Fprintf(errw, "benchtrend: warning: skipping %v\n", err)
			skipped++
			continue
		}
		key := r.workload()
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], snapshot{file: f, report: r})
	}
	if len(order) == 0 {
		fmt.Fprintf(errw, "benchtrend: no usable snapshots (%d skipped)\n", skipped)
		return 1
	}

	for gi, key := range order {
		if gi > 0 {
			fmt.Fprintln(out)
		}
		snaps := groups[key]
		fmt.Fprintf(out, "host benchmark trajectory: %s (%d snapshots)\n", key, len(snaps))
		fmt.Fprintf(out, "%-20s %-12s %12s %12s %10s %10s\n",
			"benchmark", "snapshot", "ns/op", "B/op", "allocs/op", "vs first")
		first := snaps[0]
		for _, b0 := range first.Benchmarks {
			for i, s := range snaps {
				b := find(s.Benchmarks, b0.Name)
				if b == nil {
					continue
				}
				delta := "-"
				if i > 0 && b0.NsPerOp > 0 {
					delta = fmt.Sprintf("%+.1f%%", (b.NsPerOp/b0.NsPerOp-1)*100)
				}
				fmt.Fprintf(out, "%-20s %-12s %12.0f %12d %10d %10s\n",
					b.Name, filepath.Base(s.file), b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, delta)
			}
		}
		// Benchmarks that appear only in later snapshots (e.g. a worker
		// sweep added after the group's first baseline) still get rows.
		for _, s := range snaps[1:] {
			for _, b := range s.Benchmarks {
				if find(first.Benchmarks, b.Name) == nil {
					fmt.Fprintf(out, "%-20s %-12s %12.0f %12d %10d %10s\n",
						b.Name, filepath.Base(s.file), b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, "-")
				}
			}
		}
	}
	return 0
}

func find(bs []stats.HostBench, name string) *stats.HostBench {
	for i := range bs {
		if bs[i].Name == name {
			return &bs[i]
		}
	}
	return nil
}
