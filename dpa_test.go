package dpa

import (
	"testing"

	"dpa/internal/sim"
)

type widget struct{ id int }

func (w widget) ByteSize() int { return 24 }

func TestFacadeRoundTrip(t *testing.T) {
	const nodes = 4
	space := NewSpace(nodes)
	var ptrs []Ptr
	for i := 0; i < 40; i++ {
		ptrs = append(ptrs, space.Alloc(i%nodes, widget{id: i}))
	}
	got := make([]int, nodes)
	run := RunPhase(DefaultT3D(nodes), space, DPASpec(8),
		func(rt Runtime, ep *Endpoint, nd *Node) {
			me := nd.ID()
			rt.ForAll(len(ptrs), func(i int) {
				if i%nodes != me {
					return // each node processes its own stripe
				}
				rt.Spawn(ptrs[i], func(o Object) { got[me]++ })
			})
		})
	total := 0
	for _, g := range got {
		total += g
	}
	if total != 40 {
		t.Fatalf("ran %d threads, want 40", total)
	}
	if run.Makespan <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestFacadeSpecs(t *testing.T) {
	if DPASpec(50).String() != "DPA(50)" {
		t.Error(DPASpec(50).String())
	}
	if CachingSpec().String() != "Caching" {
		t.Error(CachingSpec().String())
	}
	if BlockingSpec().String() != "Blocking" {
		t.Error(BlockingSpec().String())
	}
}

func TestFacadeAllRuntimesAgree(t *testing.T) {
	const nodes = 2
	for _, spec := range []Spec{DPASpec(4), CachingSpec(), BlockingSpec()} {
		space := NewSpace(nodes)
		p := space.Alloc(1, widget{id: 9})
		hit := false
		RunPhase(DefaultT3D(nodes), space, spec, func(rt Runtime, ep *Endpoint, nd *Node) {
			if nd.ID() == 0 {
				rt.Spawn(p, func(o Object) { hit = o.(widget).id == 9 })
				rt.Drain()
			}
		})
		if !hit {
			t.Errorf("%s: thread did not observe the object", spec)
		}
	}
}

func TestNilPointer(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil is not nil")
	}
}

func TestMachineConfigSeconds(t *testing.T) {
	cfg := DefaultT3D(1)
	if cfg.Seconds(sim.Time(cfg.ClockHz)) != 1.0 {
		t.Fatal("Seconds conversion wrong")
	}
}
