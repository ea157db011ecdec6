package core

import (
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// This file is the planner's measurement and correction layer: the per-strip
// signal snapshots the cost model reads, the per-destination round-trip
// EWMAs behind its latency bound, and the bounded
// multiplicative-increase/decrease controller that takes one corrective step
// when the model mispredicts. Every decision is a pure function of
// simulated-time counters (cycle charges, fetch/refetch counts, arrival
// times), never of host state, so planned runs are bit-identical across both
// engines and across repeats — including under fault injection, whose
// schedule is itself a pure function of the seed. The controller's own
// arithmetic is a handful of integer operations per strip and is treated as
// subsumed by the scheduler costs already charged (see DESIGN.md §8).

// Controller bounds and thresholds. The signals are ratios, so the same
// constants work across workloads; the bounds keep a misbehaving signal from
// running away.
const (
	defaultStripMin  = 8
	defaultStripMax  = 4096
	defaultMemBudget = 4 << 20 // renamed-copy bytes per strip

	// growNum/growDen is the strong-signal growth factor; a weak signal
	// grows by half as much. Shrinking (memory pressure) always halves.
	growNum = 2
	growDen = 1

	// maxTracePoints bounds the per-node adaptation trace.
	maxTracePoints = 64

	// ewmaOld/ewmaDiv: EWMA weight new sample 1/4 (integer arithmetic).
	ewmaOld = 3
	ewmaDiv = 4
)

// stripCtl is the per-node controller state.
type stripCtl struct {
	strip     int // strip size for the next strip
	min, max  int
	memBudget int64
	loop      int32 // index of the current top-level loop on this node

	// Snapshot at the start of the current strip.
	baseFetches   int64
	baseRefetches int64
	baseReqMsgs   int64
	baseArrived   int64
	baseStall     sim.Time
	baseNow       sim.Time
	stripPeak     int64 // peak renamed-copy bytes during the strip
}

// initCtl resolves the controller bounds from the config.
func (rt *RT) initCtl() {
	c := &rt.ctl
	c.strip = rt.Cfg.Strip
	c.min, c.max = rt.Cfg.StripMin, rt.Cfg.StripMax
	if c.min <= 0 {
		c.min = defaultStripMin
	}
	if c.max <= 0 {
		c.max = defaultStripMax
	}
	c.memBudget = rt.Cfg.MemBudget
	if c.memBudget <= 0 {
		c.memBudget = defaultMemBudget
	}
}

// beginStrip snapshots the counters the end-of-strip decision diffs against.
func (rt *RT) beginStrip() {
	c := &rt.ctl
	c.baseFetches = rt.st.Fetches
	c.baseRefetches = rt.st.Refetches
	c.baseReqMsgs = rt.st.ReqMsgs
	c.baseArrived = rt.arrivedBytes
	c.baseStall = rt.EP.Node.Charges()[sim.FetchStall]
	c.baseNow = rt.EP.Node.Now()
	c.stripPeak = rt.arrivedBytes
}

// stripSignals is one strip's observed communication behaviour, diffed from
// the beginStrip snapshots. It is the input of the planner's cost model, its
// misprediction check (plan.go), and the corrective controller: all read
// only simulated-time counters through it.
type stripSignals struct {
	iters        int // top-level iterations the strip admitted
	fetches      int64
	refetches    int64
	msgs         int64
	fetchedBytes int64 // renamed-copy bytes fetched during the strip
	stall        sim.Time
	elapsed      sim.Time
	peakOver     bool // the strip's own copies overflowed the memory budget
}

// stripSignals collects the just-finished strip's signals. Must run before
// any end-of-strip copy release (the byte delta reads arrivedBytes).
func (rt *RT) stripSignals(iters int) stripSignals {
	c := &rt.ctl
	return stripSignals{
		iters:        iters,
		fetches:      rt.st.Fetches - c.baseFetches,
		refetches:    rt.st.Refetches - c.baseRefetches,
		msgs:         rt.st.ReqMsgs - c.baseReqMsgs,
		fetchedBytes: rt.arrivedBytes - c.baseArrived,
		stall:        rt.EP.Node.Charges()[sim.FetchStall] - c.baseStall,
		elapsed:      rt.EP.Node.Now() - c.baseNow,
		peakOver:     c.stripPeak-c.baseArrived > c.memBudget,
	}
}

// controllerNext is the bounded multiplicative-increase/decrease step the
// planner takes instead of its own proposal when the model mispredicts:
//
//   - renamed-copy memory above budget shrinks (the paper's reason to
//     strip-mine at all);
//   - a high refetch ratio means the strip boundary is cutting reuse apart
//     — copies dropped at the boundary are fetched again — so grow;
//   - a high fetch-stall fraction means the strip admits too little work to
//     cover its own communication, so grow;
//   - under-filled request batches (objects/message well below the
//     aggregation limit) mean the strip boundary truncates aggregation, so
//     grow;
//   - weak versions of the same signals grow by half the factor, and a
//     quiet strip (little refetch or stall, full batches) holds.
//
// The result is unclamped; callers apply the [min, max] bounds.
func controllerNext(cur int, sig stripSignals, aggBase int64) int {
	switch {
	case sig.peakOver:
		// One strip's own copies overflow the budget: only a smaller strip
		// can bound memory.
		return cur / 2
	case sig.fetches == 0:
		// A purely local strip carries no communication signal.
	case sig.refetches*4 >= sig.fetches ||
		(sig.elapsed > 0 && sig.stall*2 >= sig.elapsed) ||
		(aggBase > 0 && sig.fetches*4 <= sig.msgs*aggBase):
		return cur * 2 * growNum / growDen
	case sig.refetches*16 >= sig.fetches ||
		(sig.elapsed > 0 && sig.stall*4 >= sig.elapsed) ||
		(aggBase > 0 && sig.fetches < sig.msgs*aggBase):
		return cur * growNum / growDen
	}
	return cur
}

// setStrip clamps and installs a new strip size, maintaining the adaptation
// trace and the KAdapt event stream. Only a corrective controller step counts
// as a grow or shrink; the planner's own choices are counted as PlanStrips.
// A no-op when the clamped size equals the current one.
func (rt *RT) setStrip(next int, corrective bool) {
	c := &rt.ctl
	if next < c.min {
		next = c.min
	}
	if next > c.max {
		next = c.max
	}
	if next == c.strip {
		return
	}
	switch {
	case !corrective:
	case next > c.strip:
		rt.st.StripGrows++
	default:
		rt.st.StripShrinks++
	}
	if len(rt.trace) < maxTracePoints {
		rt.trace = append(rt.trace, stats.AdaptPoint{Loop: c.loop, Strip: int32(next)})
	}
	if rt.trc != nil {
		rt.trc.Event(obs.KAdapt, rt.EP.Node.Now(), int64(next), int64(c.loop))
	}
	c.strip = next
}

// AdaptTrace returns this node's strip-size trace (nil in static mode). The
// driver records node 0's trace on the run.
func (rt *RT) AdaptTrace() []stats.AdaptPoint { return rt.trace }

// destLimit is the per-destination aggregation limit: the configured limit
// in static mode (and unlimited stays unlimited), the planner's prediction
// otherwise.
func (rt *RT) destLimit(dst int) int {
	if !rt.planner || rt.Cfg.AggLimit <= 0 {
		return rt.Cfg.aggLimit()
	}
	return rt.plannedDestLimit(dst, rt.Cfg.AggLimit)
}

// observeRTT feeds the per-destination round-trip EWMA. A sample is armed on
// the first in-flight request to dst (flushDest) and closed by its first
// reply, so queueing behind earlier requests never inflates it.
func (rt *RT) observeRTT(dst int, now sim.Time) {
	if !rt.rttMark[dst] {
		return
	}
	rt.rttMark[dst] = false
	s := now - rt.rttSentAt[dst]
	if rt.rttEwma[dst] == 0 {
		rt.rttEwma[dst] = s
	} else {
		rt.rttEwma[dst] = (ewmaOld*rt.rttEwma[dst] + s) / ewmaDiv
	}
}
