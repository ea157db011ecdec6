package machine

import (
	"testing"

	"dpa/internal/sim"
)

// TestSendFaultCountersDeterministic: two identical runs (and both engines)
// produce identical per-node fault counters — the schedule is keyed on
// (seed, sender, program order), never host interleaving.
func TestSendFaultCountersDeterministic(t *testing.T) {
	run := func(kind sim.EngineKind) (drops, dups, jit, stalls int64, spans sim.Time) {
		cfg := DefaultT3D(4)
		cfg.Engine = kind
		cfg.Faults = FaultConfig{FaultParams: sim.FaultParams{
			Seed: 5, DropRate: 0.2, DupRate: 0.1, JitterRate: 0.3, MaxJitter: 40,
			StallRate: 0.05, StallCycles: 300,
		}}
		m := New(cfg)
		span, err := m.Run(func(n *Node) {
			next := (n.ID() + 1) % n.N()
			for i := 0; i < 200; i++ {
				n.Send(next, 0, nil, 16)
				n.Poll()
				n.Charge(sim.Compute, 10)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, nd := range m.Nodes() {
			drops += nd.FaultDrops
			dups += nd.FaultDups
			jit += nd.FaultJitter
			stalls += nd.FaultStalls
		}
		return drops, dups, jit, stalls, span
	}
	d1, u1, j1, s1, m1 := run(sim.Sequential)
	d2, u2, j2, s2, m2 := run(sim.Sequential)
	d3, u3, j3, s3, m3 := run(sim.Parallel)
	if d1 != d2 || u1 != u2 || j1 != j2 || s1 != s2 || m1 != m2 {
		t.Fatalf("repeat runs diverge: (%d %d %d %d %d) vs (%d %d %d %d %d)",
			d1, u1, j1, s1, m1, d2, u2, j2, s2, m2)
	}
	if d1 != d3 || u1 != u3 || j1 != j3 || s1 != s3 || m1 != m3 {
		t.Fatalf("engines diverge: (%d %d %d %d %d) vs (%d %d %d %d %d)",
			d1, u1, j1, s1, m1, d3, u3, j3, s3, m3)
	}
	if d1 == 0 || u1 == 0 || j1 == 0 || s1 == 0 {
		t.Fatalf("expected all fault kinds to fire: drops=%d dups=%d jitter=%d stalls=%d",
			d1, u1, j1, s1)
	}
}

// TestDropActuallyDropsAndDupDuplicates: delivered message counts reflect
// the injected drops and duplicates exactly.
func TestDropActuallyDropsAndDupDuplicates(t *testing.T) {
	cfg := DefaultT3D(2)
	cfg.Faults = FaultConfig{FaultParams: sim.FaultParams{
		Seed: 17, DropRate: 0.3, DupRate: 0.2,
	}}
	const sent = 500
	var delivered int
	m := New(cfg)
	var drops, dups int64
	if _, err := m.Run(func(n *Node) {
		if n.ID() == 0 {
			for i := 0; i < sent; i++ {
				n.Send(1, 0, nil, 8)
			}
			drops = n.FaultDrops
			dups = n.FaultDups
			return
		}
		n.Charge(sim.Compute, 1<<20) // let everything arrive
		delivered = len(n.Poll())
	}); err != nil {
		t.Fatal(err)
	}
	if want := sent - int(drops) + int(dups); delivered != want {
		t.Fatalf("delivered %d, want %d (sent %d - drops %d + dups %d)",
			delivered, want, sent, drops, dups)
	}
	if drops == 0 || dups == 0 {
		t.Fatalf("expected drops and dups to fire: %d / %d", drops, dups)
	}
}

// TestControlPlaneExemptFromLoss: SendControl messages are never dropped or
// duplicated (they model the reliability protocol's acks), but they still
// consume a fault draw so the schedule stays in program-order lockstep.
func TestControlPlaneExemptFromLoss(t *testing.T) {
	cfg := DefaultT3D(2)
	cfg.Faults = FaultConfig{FaultParams: sim.FaultParams{
		Seed: 23, DropRate: 0.9, DupRate: 0.5,
	}}
	const sent = 300
	var delivered int
	m := New(cfg)
	if _, err := m.Run(func(n *Node) {
		if n.ID() == 0 {
			for i := 0; i < sent; i++ {
				n.SendControl(1, 0, nil, 8)
			}
			if n.FaultDrops != 0 || n.FaultDups != 0 {
				t.Errorf("control plane faulted: drops=%d dups=%d", n.FaultDrops, n.FaultDups)
			}
			return
		}
		n.Charge(sim.Compute, 1<<20)
		delivered = len(n.Poll())
	}); err != nil {
		t.Fatal(err)
	}
	if delivered != sent {
		t.Fatalf("delivered %d control messages, want %d", delivered, sent)
	}
}

// TestJitterOnlyDelays: jitter may only add delay (lookahead safety) and
// every message still arrives exactly once.
func TestJitterOnlyDelays(t *testing.T) {
	cfg := DefaultT3D(2)
	cfg.Faults = FaultConfig{FaultParams: sim.FaultParams{
		Seed: 31, JitterRate: 1.0, MaxJitter: 200,
	}}
	base := cfg.LatencyBase
	const sent = 200
	m := New(cfg)
	if _, err := m.Run(func(n *Node) {
		if n.ID() == 0 {
			for i := 0; i < sent; i++ {
				n.Send(1, i, nil, 8)
			}
			return
		}
		n.Charge(sim.Compute, 1<<20)
		ms := n.Poll()
		if len(ms) != sent {
			t.Errorf("delivered %d, want %d", len(ms), sent)
		}
		for _, msg := range ms {
			if msg.Arrival < base {
				t.Errorf("message arrived at %d, before minimum latency %d", msg.Arrival, base)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStallChargesStallCategory: injected stalls appear in the Stall cycle
// category and are excluded from Busy.
func TestStallChargesStallCategory(t *testing.T) {
	cfg := DefaultT3D(1)
	cfg.Faults = FaultConfig{FaultParams: sim.FaultParams{
		Seed: 37, StallRate: 1.0, StallCycles: 100,
	}}
	m := New(cfg)
	if _, err := m.Run(func(n *Node) {
		for i := 0; i < 5; i++ {
			n.Poll()
		}
		if got := n.Charges()[sim.Stall]; got != 500 {
			t.Errorf("stall cycles = %d, want 500", got)
		}
		if n.FaultStalls != 5 {
			t.Errorf("stall count = %d, want 5", n.FaultStalls)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsOffBitIdentical: a zero FaultConfig leaves a run bit-identical
// to one with no fault field set at all.
func TestFaultsOffBitIdentical(t *testing.T) {
	run := func(cfg Config) (sim.Time, [sim.NumCategories]sim.Time) {
		m := New(cfg)
		span, err := m.Run(func(n *Node) {
			next := (n.ID() + 1) % n.N()
			for i := 0; i < 50; i++ {
				n.Send(next, 0, nil, 16)
				n.Poll()
				n.Charge(sim.Compute, 25)
			}
			n.WaitMessageUntil(sim.Forever)
		})
		if err != nil {
			t.Fatal(err)
		}
		return span, m.Nodes()[1].Charges()
	}
	s1, c1 := run(DefaultT3D(3))
	cfg := DefaultT3D(3)
	cfg.Faults = FaultConfig{} // explicit zero value
	s2, c2 := run(cfg)
	if s1 != s2 || c1 != c2 {
		t.Fatalf("zero fault config perturbed the run: %d/%v vs %d/%v", s1, c1, s2, c2)
	}
}
