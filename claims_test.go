package dpa

// The paper's qualitative claims as executable tests, on the scaled
// Barnes-Hut workload: 1024 Plummer bodies at seed 42, one force phase,
// default parameters. Each assertion reads deterministic simulated outputs
// (makespan, fetch counts, peak outstanding state), so it holds or fails
// identically on every host and under both engines.

import (
	"testing"

	"dpa/internal/bh"
	"dpa/internal/nbody"
)

const (
	claimBodies = 1024
	claimSeed   = 42
)

func claimBH(nodes int, spec Spec) RunStats {
	return bh.RunSteps(DefaultT3D(nodes), spec, nbody.Plummer(claimBodies, claimSeed), 1, bh.DefaultParams())
}

// TestClaimDPABeatsCaching is table T2's claim: DPA(50) finishes the
// Barnes-Hut force phase sooner than the software-caching runtime at every
// node count P >= 2.
func TestClaimDPABeatsCaching(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		dpaRun, cachingRun := claimBH(p, DPASpec(50)), claimBH(p, CachingSpec())
		if dpaRun.Err != nil || cachingRun.Err != nil {
			t.Fatalf("P=%d: run errors: dpa %v, caching %v", p, dpaRun.Err, cachingRun.Err)
		}
		t.Logf("P=%d: DPA(50) %d cycles, caching %d cycles", p, dpaRun.Makespan, cachingRun.Makespan)
		if dpaRun.Makespan >= cachingRun.Makespan {
			t.Errorf("P=%d: DPA(50) makespan %d cycles not below caching's %d", p, dpaRun.Makespan, cachingRun.Makespan)
		}
	}
}

// TestClaimStripTradeoff is table T4's claim at P = 16: widening the strip
// trades memory for communication. As the strip grows, fetched objects do
// not rise, while peak outstanding threads and peak renamed-copy bytes do
// not fall.
func TestClaimStripTradeoff(t *testing.T) {
	var prev RunStats
	prevStrip := 0
	for _, strip := range []int{10, 50, 300} {
		r := claimBH(16, DPASpec(strip))
		if r.Err != nil {
			t.Fatalf("strip %d: %v", strip, r.Err)
		}
		t.Logf("strip %d: %d fetches, %d peak outstanding, %d peak renamed bytes",
			strip, r.RT.Fetches, r.RT.PeakOutstanding, r.RT.PeakArrivedBytes)
		if prevStrip > 0 {
			if r.RT.Fetches > prev.RT.Fetches {
				t.Errorf("strip %d -> %d: fetches rose %d -> %d", prevStrip, strip, prev.RT.Fetches, r.RT.Fetches)
			}
			if r.RT.PeakOutstanding < prev.RT.PeakOutstanding {
				t.Errorf("strip %d -> %d: peak outstanding threads fell %d -> %d",
					prevStrip, strip, prev.RT.PeakOutstanding, r.RT.PeakOutstanding)
			}
			if r.RT.PeakArrivedBytes < prev.RT.PeakArrivedBytes {
				t.Errorf("strip %d -> %d: peak renamed-copy bytes fell %d -> %d",
					prevStrip, strip, prev.RT.PeakArrivedBytes, r.RT.PeakArrivedBytes)
			}
		}
		prev, prevStrip = r, strip
	}
}
