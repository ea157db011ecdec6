package core

import (
	"math"
	"testing"

	"dpa/internal/gptr"
)

func TestAdaptiveForAllRunsEveryIteration(t *testing.T) {
	// Every planned strip overflows a two-object copy budget, so the
	// corrective controller resizes the strip mid-loop; each iteration must
	// still run exactly once.
	w := newWorld(4)
	const n = 200
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1+i%3, obj{id: i, size: 4096}))
	}
	cfg := plannerCfg(64)
	cfg.MemBudget = 8 << 10
	runs := make([]int, n)
	st, _ := w.run(cfg, func(rt *RT) {
		rt.ForAll(n, func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) { runs[o.(obj).id]++ })
		})
	})
	if st.StripShrinks == 0 {
		t.Fatalf("controller never resized the strip: %+v", st)
	}
	for i, c := range runs {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times, want 1", i, c)
		}
	}
}

func TestValidateRejectsBadAdaptiveConfigs(t *testing.T) {
	// The corrective controller's strip bounds and copy budget are
	// validated in every mode, not only when the planner reads them.
	for _, planner := range []bool{false, true} {
		base := func() Config { c := Default(); c.Planner = planner; return c }
		bad := []Config{
			func() Config { c := base(); c.StripMin = 100; c.StripMax = 10; return c }(),
			func() Config { c := base(); c.StripMin = -1; return c }(),
			func() Config { c := base(); c.StripMax = -1; return c }(),
			func() Config { c := base(); c.MemBudget = -1; return c }(),
		}
		for i, cfg := range bad {
			if err := cfg.Validate(); err == nil {
				t.Errorf("planner=%v config %d: Validate accepted %+v", planner, i, cfg)
			}
		}
		good := []Config{
			base(), // zero bounds and budget select the defaults
			func() Config { c := base(); c.StripMin, c.StripMax = 10, 10; return c }(),
			func() Config { c := base(); c.StripMin, c.MemBudget = 10, 1; return c }(),
		}
		for i, cfg := range good {
			if err := cfg.Validate(); err != nil {
				t.Errorf("planner=%v good config %d: Validate rejected: %v", planner, i, err)
			}
		}
	}
}

func TestOwnerMajorGroupsByOwner(t *testing.T) {
	// Interleaved spawns on two remote owners: the planner's owner-major
	// scheduling must run each owner's threads as one contiguous group.
	w := newWorld(3)
	const per = 8
	var ptrs []gptr.Ptr
	for i := 0; i < 2*per; i++ {
		ptrs = append(ptrs, w.space.Alloc(1+i%2, obj{id: 1 + i%2}))
	}
	var order []int
	w.run(plannerCfg(0), func(rt *RT) {
		rt.ForAll(len(ptrs), func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) { order = append(order, o.(obj).id) })
		})
	})
	if len(order) != 2*per {
		t.Fatalf("ran %d threads, want %d", len(order), 2*per)
	}
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches != 1 {
		t.Fatalf("owner switched %d times in %v, want 1 (one contiguous group per owner)",
			switches, order)
	}
}

func TestRefetchCounter(t *testing.T) {
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 1})
	cfg := Default()
	cfg.Strip = 1
	st, _ := w.run(cfg, func(rt *RT) {
		rt.ForAll(3, func(i int) {
			rt.Spawn(p, func(o gptr.Object) {})
		})
	})
	if st.Fetches != 3 || st.Refetches != 2 {
		t.Fatalf("fetches=%d refetches=%d, want 3 and 2", st.Fetches, st.Refetches)
	}
}

func TestAdaptiveStripGrowsUnderPressure(t *testing.T) {
	// The corrective controller's grow rules: a strong signal (refetch
	// ratio >= 1/4, stall >= 1/2 of elapsed, or batches filled to <= 1/4 of
	// the aggregation limit) grows the strip 4x, a weak one 2x, and a quiet
	// or purely local strip holds.
	const agg = 16
	cases := []struct {
		name string
		sig  stripSignals
		want int
	}{
		{"refetch-heavy", stripSignals{fetches: 100, refetches: 25, msgs: 7}, 40},
		{"stall-heavy", stripSignals{fetches: 100, msgs: 7, elapsed: 100, stall: 50}, 40},
		{"under-filled", stripSignals{fetches: 100, msgs: 25}, 40},
		{"weak refetch", stripSignals{fetches: 160, refetches: 10, msgs: 10}, 20},
		{"weak stall", stripSignals{fetches: 160, msgs: 10, elapsed: 100, stall: 25}, 20},
		{"weak under-fill", stripSignals{fetches: 100, msgs: 7}, 20},
		{"quiet", stripSignals{fetches: 160, msgs: 10, elapsed: 100}, 10},
		{"local", stripSignals{elapsed: 100, stall: 90}, 10},
	}
	for _, c := range cases {
		if got := controllerNext(10, c.sig, agg); got != c.want {
			t.Errorf("%s: controllerNext(10) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAdaptiveStripShrinksOverMemBudget(t *testing.T) {
	// A strip whose own copies overflow the budget halves, whatever else
	// it signals, and setStrip clamps the result to the strip bounds,
	// counting a corrective step as a shrink and a planned one as neither.
	if got := controllerNext(64, stripSignals{peakOver: true, fetches: 10, refetches: 10}, 16); got != 32 {
		t.Fatalf("over-budget controllerNext(64) = %d, want 32", got)
	}
	rt := &RT{planner: true}
	rt.Cfg = Default()
	rt.Cfg.StripMin, rt.Cfg.StripMax = 8, 100
	rt.initCtl()
	rt.ctl.strip = 10
	rt.setStrip(2, true)
	if rt.ctl.strip != 8 || rt.st.StripShrinks != 1 {
		t.Fatalf("corrective shrink: strip %d, shrinks %d; want 8 and 1", rt.ctl.strip, rt.st.StripShrinks)
	}
	rt.setStrip(1000, false)
	if rt.ctl.strip != 100 || rt.st.StripGrows != 0 {
		t.Fatalf("planned grow: strip %d, grows %d; want 100 and 0", rt.ctl.strip, rt.st.StripGrows)
	}
}

func TestAdaptiveRetentionEliminatesRefetches(t *testing.T) {
	// The same pointers are spawned in two consecutive strips. Static mode
	// drops copies at the strip boundary and refetches; the planner keeps
	// them pinned under the budget and reuses.
	w := newWorld(2)
	const n = 32
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	body := func(rt *RT) {
		rt.ForAll(2*n, func(i int) {
			rt.Spawn(ptrs[i%n], func(o gptr.Object) {})
		})
	}

	staticCfg := Default()
	staticCfg.Strip = n
	stStatic, _ := w.run(staticCfg, body)
	if stStatic.Refetches == 0 {
		t.Fatalf("static strip boundary caused no refetches: %+v", stStatic)
	}

	cfg := plannerCfg(n)
	cfg.StripMin, cfg.StripMax = 1, n // the same two strips as static
	stPlanned, _ := w.run(cfg, body)
	if stPlanned.Refetches != 0 {
		t.Fatalf("planner still refetched %d times", stPlanned.Refetches)
	}
	if stPlanned.PlanStrips < 2 || stPlanned.Fetches >= stStatic.Fetches {
		t.Fatalf("planner: %d strips, %d fetches vs static %d — retention saved nothing",
			stPlanned.PlanStrips, stPlanned.Fetches, stStatic.Fetches)
	}
}

func TestDestLimitClamps(t *testing.T) {
	// Static mode uses the configured limit and unlimited stays unlimited
	// in either mode; the planner with no prediction batches up to its
	// 8x cap.
	rt := &RT{}
	rt.Cfg = Default()
	rt.Cfg.AggLimit = 16
	if got := rt.destLimit(1); got != 16 {
		t.Fatalf("static destLimit = %d, want 16", got)
	}
	rt.planner = true
	rt.plan.prevHist = make([]int32, 2)
	if got := rt.destLimit(1); got != 128 {
		t.Fatalf("cold planned destLimit = %d, want cap 128", got)
	}
	rt.Cfg.AggLimit = 0
	if got := rt.destLimit(1); got != math.MaxInt {
		t.Fatalf("unlimited planned destLimit = %d, want MaxInt", got)
	}
}
