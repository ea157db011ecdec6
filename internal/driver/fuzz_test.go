package driver

import (
	"math/rand"
	"testing"

	"dpa/internal/core"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// fuzzObj is a random DAG node: a value and up to three children to spawn
// on when visited.
type fuzzObj struct {
	id   int
	val  float64
	kids []gptr.Ptr
}

func (o *fuzzObj) ByteSize() int { return 24 + 8*len(o.kids) }

// buildFuzzWorld creates a random DAG of objects spread over the nodes.
// Edges only point from lower to higher ids, so traversals terminate.
func buildFuzzWorld(rng *rand.Rand, nObjs, nodes int) (*gptr.Space, []gptr.Ptr) {
	space := gptr.NewSpace(nodes)
	ptrs := make([]gptr.Ptr, nObjs)
	objs := make([]*fuzzObj, nObjs)
	for i := nObjs - 1; i >= 0; i-- {
		o := &fuzzObj{id: i, val: float64(i + 1)}
		for k := 0; k < rng.Intn(4); k++ {
			j := i + 1 + rng.Intn(nObjs-i)
			if j < nObjs {
				o.kids = append(o.kids, ptrs[j])
			}
		}
		objs[i] = o
		ptrs[i] = space.Alloc(rng.Intn(nodes), o)
	}
	return space, ptrs
}

// runFuzz traverses the DAG from a random set of roots on every node,
// summing val over every visit (visits are multiset-deterministic: the
// same spawn happens regardless of scheduling).
func runFuzz(t *testing.T, space *gptr.Space, roots [][]gptr.Ptr, nodes int, spec Spec) (float64, int64) {
	t.Helper()
	sums := make([]float64, nodes)
	run := RunPhase(machine.DefaultT3D(nodes), space, spec,
		func(rt Runtime, ep *fm.EP, nd *machine.Node) {
			me := nd.ID()
			var walk func(o gptr.Object)
			walk = func(o gptr.Object) {
				fo := o.(*fuzzObj)
				sums[me] += fo.val
				for _, k := range fo.kids {
					rt.Spawn(k, walk)
				}
			}
			rt.ForAll(len(roots[me]), func(i int) {
				rt.Spawn(roots[me][i], walk)
			})
		})
	var total float64
	for _, s := range sums {
		total += s
	}
	return total, run.RT.ThreadsRun
}

// countVisits computes the exact number of thread executions the traversal
// will perform: visits[i] = root spawns of i plus visits of each parent
// times edge multiplicity (edges point to higher ids, so one ascending
// pass suffices).
func countVisits(space *gptr.Space, ptrs []gptr.Ptr, roots [][]gptr.Ptr) int64 {
	visits := make([]int64, len(ptrs))
	index := make(map[gptr.Ptr]int, len(ptrs))
	for i, p := range ptrs {
		index[p] = i
	}
	for _, rs := range roots {
		for _, r := range rs {
			visits[index[r]]++
		}
	}
	var total int64
	for i := range ptrs {
		if visits[i] == 0 {
			continue
		}
		total += visits[i]
		if total > 1<<40 {
			return total
		}
		o := space.Get(ptrs[i]).(*fuzzObj)
		for _, k := range o.kids {
			visits[index[k]] += visits[i]
			if visits[index[k]] > 1<<40 {
				visits[index[k]] = 1 << 40 // clamp against overflow
			}
		}
	}
	return total
}

// TestFuzzCrossRuntimeEquivalence checks, over many random DAGs, machine
// sizes, and DPA configurations, that every runtime executes the same
// multiset of threads and computes the same commutative sum.
func TestFuzzCrossRuntimeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nodes := 1 + rng.Intn(6)
		nObjs := 5 + rng.Intn(120)
		space, ptrs := buildFuzzWorld(rng, nObjs, nodes)
		roots := make([][]gptr.Ptr, nodes)
		for n := 0; n < nodes; n++ {
			for k := 0; k < rng.Intn(8); k++ {
				roots[n] = append(roots[n], ptrs[rng.Intn(nObjs)])
			}
		}
		specs := []Spec{
			DPASpec(1 + rng.Intn(100)),
			CachingSpec(),
			BlockingSpec(),
		}
		// Random DPA ablation variant.
		cfg := core.Default()
		cfg.Strip = 1 + rng.Intn(60)
		cfg.AggLimit = rng.Intn(20)
		cfg.Pipeline = rng.Intn(2) == 0
		cfg.LIFO = rng.Intn(2) == 0
		cfg.PollEvery = 1 + rng.Intn(16)
		specs = append(specs, Spec{Kind: DPA, Core: cfg})

		// Path counts multiply through shared DAG nodes; skip the rare
		// explosive instance so the test stays fast.
		if countVisits(space, ptrs, roots) > 50_000 {
			continue
		}

		wantSum, wantThreads := runFuzz(t, space, roots, nodes, specs[0])
		for _, spec := range specs[1:] {
			gotSum, gotThreads := runFuzz(t, space, roots, nodes, spec)
			if gotSum != wantSum {
				t.Fatalf("trial %d (%d nodes, %d objs): %s sum %v != %v",
					trial, nodes, nObjs, spec, gotSum, wantSum)
			}
			if gotThreads != wantThreads {
				t.Fatalf("trial %d: %s ran %d threads, want %d",
					trial, spec, gotThreads, wantThreads)
			}
		}
	}
}

// TestFuzzDeterminism re-runs one random configuration and requires
// bit-identical statistics.
func TestFuzzDeterminism(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		run := func() (float64, int64, int64) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			nodes := 2 + rng.Intn(5)
			space, ptrs := buildFuzzWorld(rng, 60, nodes)
			roots := make([][]gptr.Ptr, nodes)
			for n := 0; n < nodes; n++ {
				roots[n] = append(roots[n], ptrs[rng.Intn(len(ptrs))])
			}
			sum, threads := runFuzz(t, space, roots, nodes, DPASpec(10))
			return sum, threads, int64(nodes)
		}
		s1, t1, n1 := run()
		s2, t2, n2 := run()
		if s1 != s2 || t1 != t2 || n1 != n2 {
			t.Fatalf("trial %d nondeterministic: (%v,%d,%d) vs (%v,%d,%d)",
				trial, s1, t1, n1, s2, t2, n2)
		}
	}
}

// fuzzSpecs are the runtime configurations FuzzRunPhase picks from.
var fuzzSpecs = []struct {
	name string
	spec func(strip int) Spec
}{
	{"static", func(strip int) Spec { return DPASpec(strip) }},
	{"planner", func(strip int) Spec { return DPASpec(strip, WithPlanner()) }},
	{"lifo", func(strip int) Spec {
		s := DPASpec(strip)
		s.Core.LIFO = true
		return s
	}},
	{"caching", func(int) Spec { return CachingSpec() }},
	{"blocking", func(int) Spec { return BlockingSpec() }},
}

// FuzzRunPhase drives RunPhase over random DAG traversals: the seed builds
// the world and the roots, kind picks the runtime configuration, and lossy
// adds a 5% drop plan with the reliability protocol on. Every input must
// run without panicking under both engines with identical statistics, and
// a run without a degradation error must execute exactly the host-counted
// number of threads; a fault-free run must have no error at all.
//
//	go test -run '^$' -fuzz '^FuzzRunPhase$' -fuzztime 30s ./internal/driver
func FuzzRunPhase(f *testing.F) {
	// Seeds whose worlds span 2-6 nodes with a non-empty traversal: every
	// spec fault-free, and the DPA, planner and caching paths under loss.
	f.Add(int64(1), uint8(0), false)
	f.Add(int64(2), uint8(1), false)
	f.Add(int64(3), uint8(2), false)
	f.Add(int64(4), uint8(3), false)
	f.Add(int64(9), uint8(4), false)
	f.Add(int64(12), uint8(0), true)
	f.Add(int64(13), uint8(1), true)
	f.Add(int64(14), uint8(3), true)

	f.Fuzz(func(t *testing.T, seed int64, kind uint8, lossy bool) {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(6)
		nObjs := 5 + rng.Intn(120)
		space, ptrs := buildFuzzWorld(rng, nObjs, nodes)
		roots := make([][]gptr.Ptr, nodes)
		for n := range roots {
			for k := 0; k < rng.Intn(8); k++ {
				roots[n] = append(roots[n], ptrs[rng.Intn(nObjs)])
			}
		}
		want := countVisits(space, ptrs, roots)
		if want > 50_000 {
			t.Skip("path count explodes through shared DAG nodes")
		}
		fs := fuzzSpecs[int(kind)%len(fuzzSpecs)]
		spec := fs.spec(1 + rng.Intn(100))
		mcfg := machine.DefaultT3D(nodes)
		if lossy {
			mcfg.Faults = machine.DefaultFaults(uint64(seed), 0.05)
		}

		run := func(engine sim.EngineKind) (stats.Run, float64) {
			cfg := mcfg
			cfg.Engine = engine
			sums := make([]float64, nodes)
			r := RunPhase(cfg, space, spec, func(rt Runtime, ep *fm.EP, nd *machine.Node) {
				me := nd.ID()
				var walk func(o gptr.Object)
				walk = func(o gptr.Object) {
					fo := o.(*fuzzObj)
					sums[me] += fo.val
					for _, k := range fo.kids {
						rt.Spawn(k, walk)
					}
				}
				rt.ForAll(len(roots[me]), func(i int) { rt.Spawn(roots[me][i], walk) })
			})
			var total float64
			for _, s := range sums {
				total += s
			}
			return r, total
		}
		seq, seqSum := run(sim.Sequential)
		par, parSum := run(sim.Parallel)
		if d := seq.Diff(par); d != "" {
			t.Fatalf("%s (lossy=%v, %d nodes): engines differ: %s", fs.name, lossy, nodes, d)
		}
		if seqSum != parSum {
			t.Fatalf("%s (lossy=%v): engines summed %v and %v", fs.name, lossy, seqSum, parSum)
		}
		if !lossy && seq.Err != nil {
			t.Fatalf("%s: fault-free run failed: %v", fs.name, seq.Err)
		}
		if seq.Err == nil && seq.RT.ThreadsRun != want {
			t.Fatalf("%s (lossy=%v, %d nodes): ran %d threads, host count %d",
				fs.name, lossy, nodes, seq.RT.ThreadsRun, want)
		}
	})
}
