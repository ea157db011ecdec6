// Command perfbench is the repository's fixed benchmark. It runs one of
// three named workloads as a closed loop of complete simulated runs — one
// run after another, each run one operation — checks every run's output
// against a host reference, and prints one JSON result line.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload bh-dpa|em3d-par2|pagerank-lossy \
//	    [--seed N] [--seconds S] [--trace 0|1] [--spans-dir DIR]
//
// --seed is the workload seed: it generates the inputs (Plummer bodies, the
// EM3D graph, the RMAT graph); the fault schedule of pagerank-lossy keeps
// its own fixed seed. Without --seed each workload uses its default (42,
// 7, 42). --seconds is how long the loop of runs lasts.
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics: untraced runs
// for the time base, then runs wrapped in a CPU profile whose samples are
// charged to layers (see profile.go), then the layer probes (probes.go).
// The spans of a traced process are written to --spans-dir at the end.
//
// A run counts as failed when its output is outside tolerance, it returns
// an error, or any simulated statistic differs from the process's first
// run. Failed runs set "failed" and make "correct" false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dpa/internal/sim"
)

// maxProcs caps the Go scheduler at the two cores the benchmark is sized
// for, so hosts with more cores run the same configuration.
const maxProcs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bh-dpa, em3d-par2 or pagerank-lossy")
	seed := fs.Int64("seed", 0, "workload seed (default: the workload's own)")
	seconds := fs.Float64("seconds", 30, "seconds the loop of runs lasts")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "with --trace 1, directory the spans are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload bh-dpa|em3d-par2|pagerank-lossy, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		*seed = w.defaultSeed
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *seconds)
	} else {
		var tr *tracer
		res, tr, err = perLayer(w, *seed, *seconds)
		if err == nil {
			err = tr.write(filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// tally fills the result's counts from the operations and reports every
// failure on stderr.
func tally(ops []op) result {
	res := result{Correct: true, Attempted: len(ops), Metrics: map[string]metric{}}
	for i, o := range ops {
		if o.err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: run %d failed: %v\n", i, o.err)
		}
	}
	return res
}

// endToEnd measures the metrics a user of the simulator sees, with tracing
// off: set-up time, host time, memory, and the simulated results.
func endToEnd(w workload, seed int64, seconds float64) (result, error) {
	inst, setups := setUp(w, seed, nil)
	inst.reference(nil, 0)
	timed, err := loop(inst, nil, time.Now().Add(seconds2dur(seconds)), 3, nil, "run", plain)
	if err != nil {
		return result{}, err
	}
	// The heap sampler slows the run it watches, so peak memory comes from
	// one more run of its own.
	all, err := loop(inst, timed, time.Time{}, 1, nil, "memory-run", peakMem)
	if err != nil {
		return result{}, err
	}
	res := tally(all)
	r := timed[0].run
	put := res.put
	put("host_s", "s", median(pick(timed, func(o op) float64 { return o.host })))
	put("setup_s", "s", median(setups))
	put("alloc_mb", "MB", median(pick(timed, func(o op) float64 { return o.alloc }))/1e6)
	put("peak_mem_mb", "MB", all[len(timed)].peak/1e6)
	put("sim_makespan_cycles", "cycles", float64(r.Makespan))
	put("sim_msgs", "count", float64(r.MsgsSent()))
	put("sim_peak_copy_kb", "KB", float64(r.RT.PeakArrivedBytes)/1024)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d runs, host s %.3f, simulated %d cycles, %d messages\n",
		w.name, seed, len(timed), pick(timed, func(o op) float64 { return o.host }), r.Makespan, r.MsgsSent())
	return res, nil
}

// cpuLayers are the layers whose CPU share the traced run reports; samples
// charged to any other dpa/internal package are reported as other.
var cpuLayers = []string{"sim", "fm", "machine", "core", "driver", "bh", "em3d", "graph", "gc", "runtime"}

// cycleCats are the simulated cycle categories reported as shares of
// node-cycles (nodes × makespan).
var cycleCats = []sim.Category{sim.Compute, sim.SendOv, sim.RecvOv, sim.PollOv, sim.HandlerOv,
	sim.SchedOv, sim.MemOv, sim.Idle, sim.FetchStall}

// perLayer measures the per-layer metrics: spans around set-up and the
// reference, untraced runs for the time base over the first half of the
// time, CPU-profiled runs over the second half, then the layer probes.
func perLayer(w workload, seed int64, seconds float64) (result, *tracer, error) {
	tr := newTracer()
	inst, _ := setUp(w, seed, tr)
	verify := tr.begin(0, "verify")
	inst.reference(tr, verify)
	tr.end(verify)

	start := time.Now()
	untraced, err := loop(inst, nil, start.Add(seconds2dur(seconds/2)), 2, tr, "run", plain)
	if err != nil {
		return result{}, nil, err
	}
	all, err := loop(inst, untraced, start.Add(seconds2dur(seconds)), 1, tr, "traced-run", profiled)
	if err != nil {
		return result{}, nil, err
	}
	traced := all[len(untraced):]
	probes, err := runProbes(tr)
	if err != nil {
		return result{}, nil, err
	}

	res := tally(all)
	put := res.put
	r := untraced[0].run
	host := median(pick(untraced, func(o op) float64 { return o.host }))

	// CPU shares from the profiled runs.
	counts := map[string]int64{}
	var total int64
	for _, o := range traced {
		for layer, n := range o.profile {
			counts[layer] += n
			total += n
		}
	}
	other := total
	for _, layer := range cpuLayers {
		other -= counts[layer]
		put(layer+".cpu_share", "frac", ratio(float64(counts[layer]), float64(total)))
	}
	put("other.cpu_share", "frac", ratio(float64(other), float64(total)))
	put("trace_overhead_frac", "frac", median(pick(traced, func(o op) float64 { return o.host }))/host-1)

	// sim: engine probes, parallel-engine windows and steals, cycle shares.
	put("sim.handoff_ns", "ns", probes["sim.handoff_ns"])
	put("sim.handoff_par_ns", "ns", probes["sim.handoff_par_ns"])
	var windows, steals []float64
	for _, o := range untraced {
		if h := o.run.Host; h != nil {
			windows = append(windows, float64(h.Windows))
			steals = append(steals, float64(h.Steals()))
		}
	}
	put("sim.windows", "count", median(windows))
	put("sim.steals", "count", median(steals))
	t := r.Total()
	nodeCycles := float64(len(r.Nodes)) * float64(r.Makespan)
	for _, c := range cycleCats {
		put("sim.cycles."+c.String(), "frac", ratio(float64(t.Cycles[c]), nodeCycles))
	}

	// fm reliability.
	f := r.Faults
	put("fm.retransmits", "count", float64(f.Retransmits))
	put("fm.acks", "count", float64(f.AcksSent))
	put("fm.dups_suppressed", "count", float64(f.DupsSuppressed))
	put("fm.retx_per_drop", "ratio", ratio(float64(f.Retransmits), float64(f.Dropped)))

	// machine cost model.
	put("machine.touch_hit_ns", "ns", probes["machine.touch_hit_ns"])
	put("machine.touch_miss_ns", "ns", probes["machine.touch_miss_ns"])
	put("machine.cache_hit_rate", "frac", t.HitRate())

	// core runtime.
	rt := r.RT
	put("core.threads", "count", float64(rt.ThreadsRun))
	put("core.fetches", "count", float64(rt.Fetches))
	put("core.reuse_frac", "frac", ratio(float64(rt.Reuses), float64(rt.Spawns)))
	put("core.objs_per_req", "ratio", ratio(float64(rt.Fetches), float64(rt.ReqMsgs)))
	put("core.refetches", "count", float64(rt.Refetches))
	put("core.peak_outstanding", "count", float64(rt.PeakOutstanding))
	put("core.plan_mispredicts", "count", float64(rt.PlanMispredicts))

	// driver.
	put("driver.host_ns_per_thread", "ns", ratio(host*1e9, float64(rt.ThreadsRun)))

	// apps: set-up spans and the host reference.
	for _, s := range []struct{ metric, span string }{
		{"nbody.plummer_s", "nbody.Plummer"},
		{"bh.build_s", "bh.Build"},
		{"bh.distribute_s", "bh.Distribute"},
		{"em3d.build_s", "em3d.Build"},
		{"graph.build_s", "graph.Build"},
		{"verify_s", "verify"},
	} {
		put(s.metric, "s", tr.median(s.span))
	}

	// Go runtime, over the untraced runs.
	put("gc.cycles", "count", median(pick(untraced, func(o op) float64 { return o.gcCycles })))
	put("gc.pause_s", "s", median(pick(untraced, func(o op) float64 { return o.gcPause })))

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d untraced and %d traced runs, %d profile samples\n",
		w.name, seed, len(untraced), len(traced), total)
	return res, tr, nil
}

// ratio returns a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
