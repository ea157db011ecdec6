package main

import (
	"fmt"
	"time"

	"dpa/internal/machine"
	"dpa/internal/sim"
)

// Layer probes: short fixed loops through one layer's public functions,
// each asserting that it did the work it timed.

const (
	probeDelay   = 550     // message delay in cycles: the T3D model's minimum (send overhead + base latency)
	handoffMsgs  = 200_000 // messages per sequential hand-off probe
	handoffPar   = 40_000  // messages per parallel hand-off probe (each needs its own window)
	touchN       = 1 << 20 // touches per cache probe
	hitKeys      = 128     // hit-stream working set, within the model's 256 cache lines
	probeRepeats = 3
)

// handoffProbe ping-pongs msgs messages between two processes on e with
// Post/WaitMessage and returns host nanoseconds per message. Every wait
// finds its message in the future, so each message costs one engine
// hand-off.
func handoffProbe(e sim.Engine, msgs int) (float64, error) {
	rounds := msgs / 2
	var got [2]int
	for range 2 {
		e.Spawn(func(p *sim.Proc) {
			me := p.ID()
			peer := 1 - me
			if me == 0 {
				p.Post(peer, sim.Message{Arrival: p.Now() + probeDelay})
			}
			for i := 0; i < rounds; i++ {
				got[me] += len(p.WaitMessage())
				if me == 1 || i < rounds-1 {
					p.Post(peer, sim.Message{Arrival: p.Now() + probeDelay})
				}
			}
		})
	}
	t0 := time.Now()
	_, err := e.Run()
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("hand-off probe: %w", err)
	}
	if got[0] != rounds || got[1] != rounds {
		return 0, fmt.Errorf("hand-off probe: delivered %d+%d messages, want %d+%d", got[0], got[1], rounds, rounds)
	}
	return float64(d.Nanoseconds()) / float64(2*rounds), nil
}

// touchProbe runs n Node.Touch calls over keys on a one-node machine, after
// warm touches that are not timed, and returns host nanoseconds per touch.
// It checks the node's hit and miss counters against wantHits and
// wantMisses, which count the timed touches only.
func touchProbe(keys func(i int) uint64, warm, n int, wantHits, wantMisses int64) (float64, error) {
	m := machine.New(machine.DefaultT3D(1))
	var d time.Duration
	var hits, misses int64
	_, err := m.Run(func(nd *machine.Node) {
		for i := 0; i < warm; i++ {
			nd.Touch(keys(i))
		}
		h0, m0 := nd.CacheHits, nd.CacheMisses
		t0 := time.Now()
		for i := 0; i < n; i++ {
			nd.Touch(keys(i))
		}
		d = time.Since(t0)
		hits, misses = nd.CacheHits-h0, nd.CacheMisses-m0
	})
	if err != nil {
		return 0, fmt.Errorf("touch probe: %w", err)
	}
	if hits != wantHits || misses != wantMisses {
		return 0, fmt.Errorf("touch probe: %d hits and %d misses, want %d and %d", hits, misses, wantHits, wantMisses)
	}
	return float64(d.Nanoseconds()) / float64(n), nil
}

// runProbes runs every probe probeRepeats times and returns the median of
// each, keyed by metric name.
func runProbes(tr *tracer) (map[string]float64, error) {
	probes := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"sim.handoff_ns", func() (float64, error) { return handoffProbe(sim.NewEngine(), handoffMsgs) }},
		{"sim.handoff_par_ns", func() (float64, error) {
			return handoffProbe(sim.NewParallelTuned(probeDelay, sim.Tuning{Workers: 2}), handoffPar)
		}},
		{"machine.touch_hit_ns", func() (float64, error) {
			return touchProbe(func(i int) uint64 { return uint64(i % hitKeys) }, hitKeys, touchN, touchN, 0)
		}},
		{"machine.touch_miss_ns", func() (float64, error) {
			return touchProbe(func(i int) uint64 { return uint64(i) }, 0, touchN, 0, touchN)
		}},
	}
	out := map[string]float64{}
	root := tr.begin(0, "probes")
	defer tr.end(root)
	for _, p := range probes {
		var xs []float64
		for range probeRepeats {
			var x float64
			var err error
			tr.span(root, p.name, func() { x, err = p.fn() })
			if err != nil {
				return nil, err
			}
			xs = append(xs, x)
		}
		out[p.name] = median(xs)
	}
	return out, nil
}
