package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"dpa/internal/stats"
)

// runtime/metrics names read around every operation.
const (
	allocsMetric = "/gc/heap/allocs:bytes"
	cyclesMetric = "/gc/cycles/total:gc-cycles"
	pauseMetric  = "/cpu/classes/gc/pause:cpu-seconds"
	liveMetric   = "/gc/heap/live:bytes"

	peakInterval = time.Millisecond
)

// op is the measurement of one operation.
type op struct {
	run      stats.Run
	host     float64 // wall seconds of the run call
	alloc    float64 // heap bytes allocated
	peak     float64 // largest live heap seen (peakMem operations only)
	gcCycles float64
	gcPause  float64 // wall seconds the world was stopped for GC
	profile  map[string]int64
	err      error // why the operation failed, nil when it passed
}

type gcSnap struct {
	alloc, cycles uint64
	pauseCPU      float64
}

func readGC() gcSnap {
	s := []metrics.Sample{{Name: allocsMetric}, {Name: cyclesMetric}, {Name: pauseMetric}}
	metrics.Read(s)
	return gcSnap{alloc: s[0].Value.Uint64(), cycles: s[1].Value.Uint64(), pauseCPU: s[2].Value.Float64()}
}

// peakSampler reads the live heap — the bytes the last GC cycle marked —
// every peakInterval on its own goroutine until stop, which returns the
// largest value read. The live heap, unlike the heap's total size, does not
// depend on when the collector happened to run, so its peak repeats within a
// few percent from run to run.
type peakSampler struct {
	quit chan struct{}
	done chan uint64
}

func startPeak() *peakSampler {
	ps := &peakSampler{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: liveMetric}}
		var peak uint64
		tick := time.NewTicker(peakInterval)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-ps.quit:
				ps.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return ps
}

func (ps *peakSampler) stop() uint64 {
	close(ps.quit)
	return <-ps.done
}

// mode selects what an operation records besides its time and
// allocations. Each extra costs host time, so only plain operations give
// host_s.
type mode int

const (
	plain    mode = iota
	peakMem       // sample the live heap every peakInterval
	profiled      // wrap the run call in a CPU profile
)

// operate performs one operation of inst and measures it. The heap is
// collected first so every operation starts from the same live set.
func operate(inst instance, first *stats.Run, tr *tracer, name string, m mode) (op, error) {
	runtime.GC()
	root := tr.begin(0, name)
	defer tr.end(root)
	var o op
	var prof bytes.Buffer
	var ps *peakSampler
	switch m {
	case peakMem:
		ps = startPeak()
	case profiled:
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return o, fmt.Errorf("cpu profile: %w", err)
		}
	}
	g0 := readGC()
	t0 := time.Now()
	o.run = inst.run(tr, root)
	o.host = time.Since(t0).Seconds()
	g1 := readGC()
	switch m {
	case peakMem:
		o.peak = float64(ps.stop())
	case profiled:
		pprof.StopCPUProfile()
		var err error
		if o.profile, err = foldProfile(prof.Bytes()); err != nil {
			return o, err
		}
	}
	o.alloc = float64(g1.alloc - g0.alloc)
	o.gcCycles = float64(g1.cycles - g0.cycles)
	o.gcPause = (g1.pauseCPU - g0.pauseCPU) / float64(runtime.GOMAXPROCS(0))
	var checkErr error
	tr.span(root, "check", func() { checkErr = inst.check() })
	o.err = judge(first, o.run, checkErr)
	return o, nil
}

// loop appends operations to ops until the deadline has passed and at
// least minOps have run.
func loop(inst instance, ops []op, deadline time.Time, minOps int, tr *tracer, name string, m mode) ([]op, error) {
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		var first *stats.Run
		if len(ops) > 0 {
			first = &ops[0].run
		}
		o, err := operate(inst, first, tr, name, m)
		if err != nil {
			return ops, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// setupBudget bounds the set-up repeats: at least minSetups, then more
// while the repeats so far took less than setupBudget, at most maxSetups.
const (
	minSetups   = 5
	maxSetups   = 30
	setupBudget = 1.5 // seconds
)

// setUp prepares the workload's inputs repeatedly and returns the last
// instance and the wall seconds of every repeat.
func setUp(w workload, seed int64, tr *tracer) (instance, []float64) {
	var inst instance
	var secs []float64
	total := 0.0
	for len(secs) < minSetups || (total < setupBudget && len(secs) < maxSetups) {
		inst = nil
		runtime.GC()
		root := tr.begin(0, "setup")
		t0 := time.Now()
		inst = w.prepare(seed, tr, root)
		d := time.Since(t0).Seconds()
		tr.end(root)
		secs = append(secs, d)
		total += d
	}
	return inst, secs
}

func pick(ops []op, f func(op) float64) []float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return xs
}
