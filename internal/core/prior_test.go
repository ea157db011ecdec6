package core

import (
	"testing"

	"dpa/internal/gptr"
)

// TestPriorSteadyStateAllocatesNothing pins the recycling contract on the
// prior update cycle: once the prior's owner slice has been sized by a first
// fold, every later attach → stage → fold round trip must run without a
// single heap allocation.
func TestPriorSteadyStateAllocatesNothing(t *testing.T) {
	const nodes = 4
	const n = 64 // top-level iterations, repeated every phase
	rt := &RT{planner: true}
	rt.Cfg = Default()
	rt.initCtl()
	rt.plan.curHist = make([]int32, nodes)
	rt.plan.prevHist = make([]int32, nodes)
	rt.plan.phaseHist = make([]int64, nodes)
	p := &Prior{}

	phase := func() {
		rt.AttachPrior(p)
		rt.plan.warm = false
		rt.stagePrior()
		rt.plan.phaseIters = n
		rt.plan.phaseHist[1] = n
		rt.FoldPrior()
	}
	phase() // the first fold sizes the owner slice

	// The steady cycle must actually take the warm path, or zero allocs
	// would be vacuous.
	phase()
	if !rt.plan.warm {
		t.Fatal("prior not staged after a warm-up fold")
	}
	if avg := testing.AllocsPerRun(100, phase); avg != 0 {
		t.Fatalf("steady-state prior cycle allocates %.1f times per phase, want 0", avg)
	}
}

// TestPriorWarmStartNeverNarrowsFirstStrip: a usable prior changes how the
// first planned strip batches its requests, never its size — the cold plan
// (the whole loop, bounded by the configured maximum) is the zero-refetch
// schedule. Cold, 400 requests to one owner split at the 8×AggLimit cap into
// four messages; with last phase's 400-fetch total staged, the predicted
// volume rides one uncapped batch.
func TestPriorWarmStartNeverNarrowsFirstStrip(t *testing.T) {
	w := newWorld(2)
	const n = 400
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	loop := func(prior *Prior) (int64, int64, int64) {
		st, _ := w.run(plannerCfg(10), func(rt *RT) {
			rt.AttachPrior(prior)
			rt.ForAll(n, func(i int) {
				rt.Spawn(ptrs[i], func(o gptr.Object) {})
			})
		})
		return st.PlanStrips, st.ReqMsgs, st.PlanPriorHits
	}
	strips, msgs, hits := loop(nil)
	if strips != 1 || msgs != 4 || hits != 0 {
		t.Fatalf("cold loop: %d strips, %d request messages, %d prior hits; want 1, 4, 0",
			strips, msgs, hits)
	}
	strips, msgs, hits = loop(&Prior{Iters: n, Fetches: []int64{0, n}})
	if strips != 1 || msgs != 1 || hits != 1 {
		t.Fatalf("warm loop: %d strips, %d request messages, %d prior hits; want 1, 1, 1",
			strips, msgs, hits)
	}
}

// TestPriorUnusableStaysCold: a prior from a phase that planned no loops or
// fetched nothing remotely carries no batching evidence and must leave the
// plan cold.
func TestPriorUnusableStaysCold(t *testing.T) {
	for _, p := range []*Prior{nil, {}, {Iters: 10, Fetches: []int64{0, 0}}, {Fetches: []int64{0, 5}}} {
		if p.usable() {
			t.Errorf("prior %+v reported usable", p)
		}
	}
	if !(&Prior{Iters: 1, Fetches: []int64{0, 1}}).usable() {
		t.Error("prior with iterations and fetches reported unusable")
	}
}
