// Package core implements Dynamic Pointer Alignment (DPA), the paper's
// primary contribution: a runtime that schedules pointer-labeled
// non-blocking threads and their communication together, so that
//
//   - threads that use the same global object execute back to back
//     (generalized tiling: data reuse while the object is hot),
//   - object requests are issued early and overlap with local execution
//     (message pipelining), and
//   - requests to the same owner node are batched (message aggregation).
//
// The programming model matches the paper's compiler output: a computation
// is decomposed into threads, each of which dereferences exactly one global
// pointer, hoisted to thread entry. A thread-creation site is labeled with
// that pointer and registered via Spawn. The runtime maintains the two
// tables from the paper:
//
//	M : pointer -> dependent (suspended) threads, updated at Spawn
//	D : pointer -> fetch state (in flight, or an arrived renamed copy)
//
// Top-level concurrent loops are strip-mined (ForAll) with a static strip
// size, like k-bounded loops, to bound the memory consumed by outstanding
// thread state and renamed copies. Renamed copies are dropped at strip
// boundaries; the strip size therefore trades refetch traffic against
// memory, which the paper's "DPA (50)" / "DPA (300)" configurations explore.
package core

import (
	"fmt"
	"math"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Thread is a non-blocking thread body. It receives the (local or renamed)
// object for the pointer its creation site was labeled with, and must not
// block; it may create further threads via Spawn. It is an alias so that
// *RT satisfies the driver's runtime interface directly.
type Thread = func(obj gptr.Object)

// Per-operation runtime costs in cycles, fixed by calibration like the
// machine's cost table.
const (
	// spawnCost is runtime overhead charged per thread-creation site:
	// allocate and label the continuation, owner test, M/D bookkeeping.
	spawnCost sim.Time = 90
	// execCost is scheduler overhead charged per thread dispatch: dequeue,
	// dispatch through the renamed pointer.
	execCost sim.Time = 54
	// mapCost is the cost of one M/D table operation (paid only on spawns
	// that reference remote objects; this is the "minimized hashing"
	// advantage over software caching, which probes on every access).
	mapCost sim.Time = 30
)

// Config selects the DPA scheduling and communication policy.
type Config struct {
	// Strip is the strip size for top-level concurrent loops (the paper's
	// headline configuration is 50). 0 means "one strip": the whole loop
	// is admitted at once, with no strip-mining. Negative values are
	// invalid (rejected by Validate). The planner sizes every strip itself;
	// Strip is only the value its strip trace starts from.
	Strip int
	// Planner enables the predictive communication planner: at every strip
	// boundary a closed-form cost model — fed by the strip's reuse summary
	// (per-owner fetch histogram, dependent-thread counts, stall fraction,
	// renamed-copy bytes) — chooses the next strip size and per-destination
	// aggregation limits before the strip runs, and the D-table pins each
	// renamed copy for exactly its reuse region (released only once a full
	// strip passes without a reference, and only under memory pressure).
	// A bounded reactive controller corrects only when the model
	// mispredicts. Planner mode also schedules the ready queue owner-major,
	// flushes aggregation buffers in owner order, wakes a reply's waiters in
	// one batch, and, when the driver attaches the previous phase of the
	// same kind (AttachPrior), batches the first planned loop's requests
	// from that phase's per-owner fetch totals. All decisions are pure
	// functions of simulated-time state, so planned runs stay bit-identical
	// across engines, repeats, and seeded faults; with Planner false none
	// of these paths run.
	Planner bool
	// StripMin/StripMax bound the planner's strip sizes (<= 0: defaults 8
	// and 4096). Ignored in static mode.
	StripMin int
	StripMax int
	// MemBudget is the planner's renamed-copy byte budget (<= 0: default
	// 4 MB). Ignored in static mode.
	MemBudget int64
	// AggLimit is the maximum number of pointers per request message.
	// 1 disables aggregation; 0 means unlimited; negative is invalid
	// (rejected by Validate).
	AggLimit int
	// Pipeline enables eager flushing of request buffers so communication
	// overlaps thread execution. When false, requests are deferred until
	// the ready queue drains (no overlap).
	Pipeline bool
	// PollEvery is the number of ready-thread executions between network
	// polls. <= 0 defaults to 1 (poll every iteration, the paper's
	// conservative placement).
	PollEvery int
	// LIFO selects a depth-first ready-queue discipline instead of the
	// default FIFO. The paper's compiler chooses among scheduling
	// templates; the queue discipline is the scheduling half of that
	// choice — LIFO finishes traversal subtrees before starting new ones
	// (less outstanding state), FIFO preserves reply-grouping order.
	LIFO bool
}

// Default returns the paper's headline configuration: strip size 50,
// aggregation and pipelining enabled.
func Default() Config {
	return Config{
		Strip:     50,
		AggLimit:  16,
		Pipeline:  true,
		PollEvery: 1,
	}
}

// Validate rejects configurations with no defined meaning. It is called by
// the driver before a runtime is instantiated.
func (c *Config) Validate() error {
	if c.Strip < 0 {
		return fmt.Errorf("core: Strip must be >= 0 (0 = one strip), got %d", c.Strip)
	}
	if c.StripMin < 0 || c.StripMax < 0 {
		return fmt.Errorf("core: strip bounds must be >= 0 (0 = default), got min=%d max=%d",
			c.StripMin, c.StripMax)
	}
	if c.StripMin > 0 && c.StripMax > 0 && c.StripMin > c.StripMax {
		return fmt.Errorf("core: StripMin %d exceeds StripMax %d", c.StripMin, c.StripMax)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("core: MemBudget must be >= 0 (0 = default), got %d", c.MemBudget)
	}
	if c.Planner && c.LIFO {
		return fmt.Errorf("core: Planner and LIFO are mutually exclusive (owner-major scheduling replaces the queue discipline)")
	}
	if c.AggLimit < 0 {
		return fmt.Errorf("core: AggLimit must be >= 0 (0 = unlimited), got %d", c.AggLimit)
	}
	if c.PollEvery < 0 {
		return fmt.Errorf("core: PollEvery must be >= 0 (0 = every iteration), got %d", c.PollEvery)
	}
	return nil
}

func (c *Config) aggLimit() int {
	if c.AggLimit <= 0 {
		return math.MaxInt
	}
	return c.AggLimit
}

func (c *Config) pollEvery() int {
	if c.PollEvery <= 0 {
		return 1
	}
	return c.PollEvery
}

// Proto holds the fetch-protocol handler ids on a shared fm.Net. Register
// once per Net, before endpoints are created.
type Proto struct {
	hReq   int
	hReply int
}

// fetchReq asks an owner for a batch of its objects. Requests and replies
// are passed by pointer and recycled through per-node free lists once their
// handler has consumed them, so the steady-state fetch protocol allocates
// nothing on the host.
type fetchReq struct {
	ptrs []gptr.Ptr
}

// fetchReply carries the objects back. In the simulator objects are
// transferred by reference (phases are read-only); the byte size models
// serialization.
type fetchReply struct {
	ptrs []gptr.Ptr
	objs []gptr.Object
}

const msgHeaderBytes = 4

// RegisterProto installs the DPA fetch handlers on net.
func RegisterProto(net *fm.Net) *Proto {
	p := &Proto{}
	p.hReq = net.Register(onFetchReq)
	p.hReply = net.Register(onFetchReply)
	return p
}

func onFetchReq(ep *fm.EP, m sim.Message) {
	rt := ep.Ctx.(*RT)
	req := m.Payload.(*fetchReq)
	if rt.trc != nil {
		rt.trc.Event(obs.KFetchServe, ep.Node.Now(), int64(m.From), int64(len(req.ptrs)))
	}
	rep := rt.pool.getReply()
	rep.ptrs = req.ptrs // echoed back; recycled by the requester
	rep.objs = rt.pool.getObjs(len(req.ptrs))
	bytes := msgHeaderBytes
	for i, p := range req.ptrs {
		// The owner reads the object out of its memory to serialize it.
		ep.Node.Touch(p.Key())
		o := rt.Space.Get(p)
		rep.objs[i] = o
		bytes += o.ByteSize() + gptr.PtrBytes
	}
	ep.Send(m.From, rt.proto.hReply, rep, bytes)
	req.ptrs = nil // ownership moved to the reply
	rt.pool.putReq(req)
}

func onFetchReply(ep *fm.EP, m sim.Message) {
	rt := ep.Ctx.(*RT)
	rep := m.Payload.(*fetchReply)
	if rt.pendingByDest[m.From] > 0 {
		rt.pendingByDest[m.From]--
		rt.pendingReplies--
	}
	if rt.planner {
		rt.observeRTT(m.From, ep.Node.Now())
		rt.scatterReply(m.From, rep)
		rt.trackPeak()
		rt.pool.putPtrs(rep.ptrs)
		rt.pool.putObjs(rep.objs)
		rt.pool.putReply(rep)
		return
	}
	for i, p := range rep.ptrs {
		o := rep.objs[i]
		e := rt.table[p]
		if e == nil || e.arrived {
			// Only possible under degradation: the entry was abandoned
			// (owner declared unreachable) before this late reply landed.
			continue
		}
		e.obj = o
		e.arrived = true
		if rt.trc != nil {
			rt.trc.Event(obs.KFetchReply, ep.Node.Now(), int64(p.Key()), int64(m.From))
		}
		rt.arrivedBytes += int64(o.ByteSize())
		if rt.arrivedBytes > rt.st.PeakArrivedBytes {
			rt.st.PeakArrivedBytes = rt.arrivedBytes
		}
		rt.waiting -= len(e.waiters)
		// All threads dependent on p become ready together: they will run
		// back to back, reusing the renamed copy while it is hot.
		for j, fn := range e.waiters {
			rt.ready.push(readyEntry{key: p.Key(), obj: o, fn: fn})
			e.waiters[j] = nil
		}
		e.waiters = e.waiters[:0]
	}
	rt.trackPeak()
	rt.pool.putPtrs(rep.ptrs)
	rt.pool.putObjs(rep.objs)
	rt.pool.putReply(rep)
}

// scatterReply is the planner's reply path: one wake pass appends every
// dependent thread of the batch — all waiters of all pointers the reply
// carries — to the owner's run list, enqueueing the owner once, instead of
// per-pointer wakeups into a global queue.
func (rt *RT) scatterReply(owner int, rep *fetchReply) {
	l := &rt.oq.lists[owner]
	woken := 0
	for i, p := range rep.ptrs {
		e := rt.table[p]
		if e == nil || e.arrived {
			// Only possible under degradation: the entry was abandoned
			// before this late reply landed.
			continue
		}
		o := rep.objs[i]
		e.obj = o
		e.arrived = true
		if rt.trc != nil {
			rt.trc.Event(obs.KFetchReply, rt.EP.Node.Now(), int64(p.Key()), int64(owner))
		}
		rt.arrivedBytes += int64(o.ByteSize())
		if rt.arrivedBytes > rt.st.PeakArrivedBytes {
			rt.st.PeakArrivedBytes = rt.arrivedBytes
		}
		if rt.arrivedBytes > rt.ctl.stripPeak {
			rt.ctl.stripPeak = rt.arrivedBytes
		}
		key := p.Key()
		for j, fn := range e.waiters {
			l.items = append(l.items, readyEntry{key: key, obj: o, fn: fn})
			e.waiters[j] = nil
		}
		woken += len(e.waiters)
		e.waiters = e.waiters[:0]
	}
	if woken == 0 {
		return
	}
	rt.waiting -= woken
	rt.oq.count += woken
	if !l.queued {
		l.queued = true
		rt.oq.order = append(rt.oq.order, owner)
	}
}

// dEntry is one fused M/D table entry for a remote pointer: while the fetch
// is in flight it holds the suspended threads (the paper's M table); once
// the reply lands it holds the renamed copy (the D table). Fusing the two
// maps means a remote spawn costs one hash probe instead of up to three.
// lastUse packs into the padding after the bool, keeping the entry at the
// 48-byte layout the sizeof regression test budgets.
type dEntry struct {
	obj     gptr.Object
	waiters []Thread
	lastUse int32 // strip index of the last reference (planner reuse regions)
	arrived bool
}

// RT is the per-node DPA runtime instance.
type RT struct {
	EP    *fm.EP
	Space *gptr.Space
	Cfg   Config
	proto *Proto

	ready   readyQueue
	table   map[gptr.Ptr]*dEntry // fused M/D: fetch state + suspended threads
	waiting int

	agg      [][]gptr.Ptr // per-destination request buffers
	aggDests []int        // destinations with non-empty buffers, FIFO
	aggCount int          // total queued pointers

	pendingReplies int
	pendingByDest  []int // outstanding request messages per owner node

	err error // first degradation error (unreachable owners), if any

	arrivedBytes int64
	seen         map[gptr.Ptr]struct{} // pointers fetched earlier in the phase
	st           stats.RTStats
	pool         pools

	// trc is the node's observability handle (nil when tracing is off),
	// cached at construction so hot-path emission sites pay one nil check.
	trc *obs.NodeTrace

	// Planner mode (Cfg.Planner); see adapt.go, ownerq.go, plan.go and
	// prior.go.
	planner   bool
	plan      planState
	oq        ownerQueue // owner-major ready queue (replaces ready)
	ctl       stripCtl
	trace     []stats.AdaptPoint
	rttEwma   []sim.Time // per-destination round-trip EWMA
	rttSentAt []sim.Time
	rttMark   []bool
}

// New creates the runtime for one node and binds it to the endpoint (the
// fetch handlers find it through ep.Ctx).
func New(proto *Proto, ep *fm.EP, space *gptr.Space, cfg Config) *RT {
	rt := &RT{
		EP:            ep,
		Space:         space,
		Cfg:           cfg,
		proto:         proto,
		table:         make(map[gptr.Ptr]*dEntry),
		agg:           make([][]gptr.Ptr, ep.Node.N()),
		pendingByDest: make([]int, ep.Node.N()),
		seen:          make(map[gptr.Ptr]struct{}),
		planner:       cfg.Planner,
		trc:           ep.Node.Obs(),
	}
	if rt.planner {
		n := ep.Node.N()
		rt.oq.init(n)
		rt.rttEwma = make([]sim.Time, n)
		rt.rttSentAt = make([]sim.Time, n)
		rt.rttMark = make([]bool, n)
		rt.initCtl()
		rt.plan.init(n, ep.Node.Cfg())
	}
	ep.Ctx = rt
	return rt
}

// Stats returns the node's runtime counters.
func (rt *RT) Stats() stats.RTStats { return rt.st }

// Err returns the runtime's degradation error, nil for a clean run.
func (rt *RT) Err() error { return rt.err }

// Spawn registers a thread labeled with pointer p — the paper's
// thread-creation site. If p is local or replicated the thread is
// immediately ready with a direct object reference (no table operation).
// Otherwise M and D route it: an already-arrived renamed copy makes it
// ready, an in-flight fetch queues it on M, and a fresh pointer enqueues a
// request in the owner's aggregation buffer.
func (rt *RT) Spawn(p gptr.Ptr, fn Thread) {
	if p.IsNil() {
		panic("core: Spawn with nil pointer")
	}
	n := rt.EP.Node
	n.Charge(sim.SchedOv, spawnCost)
	rt.st.Spawns++
	if rt.Space.LocalOrRepl(p, n.ID()) {
		rt.st.LocalHits++
		rt.pushReady(n.ID(), readyEntry{key: p.Key(), obj: rt.Space.Get(p), fn: fn})
		rt.trackPeak()
		return
	}
	n.Charge(sim.SchedOv, mapCost)
	if e, ok := rt.table[p]; ok {
		rt.st.Reuses++
		e.lastUse = rt.plan.stripIdx // reuse region stays open
		if e.arrived {
			rt.pushReady(int(p.Node), readyEntry{key: p.Key(), obj: e.obj, fn: fn})
		} else {
			e.waiters = append(e.waiters, fn)
			rt.waiting++
		}
		rt.trackPeak()
		return
	}
	e := rt.pool.getEntry()
	e.waiters = append(e.waiters, fn)
	e.lastUse = rt.plan.stripIdx
	rt.table[p] = e
	rt.waiting++
	rt.st.Fetches++
	if _, dup := rt.seen[p]; dup {
		// Fetched before and dropped since (a strip boundary): the refetch
		// traffic the strip size trades against memory.
		rt.st.Refetches++
	} else {
		rt.seen[p] = struct{}{}
	}
	rt.enqueueReq(p)
	rt.trackPeak()
}

// pushReady makes a thread ready. owner is the node that supplied its
// object (the local node for local and replicated pointers); planner mode
// groups the ready queue by it.
func (rt *RT) pushReady(owner int, e readyEntry) {
	if rt.planner {
		rt.oq.push(owner, e)
	} else {
		rt.ready.push(e)
	}
}

// readyLen is the ready-thread count under either queue.
func (rt *RT) readyLen() int {
	if rt.planner {
		return rt.oq.len()
	}
	return rt.ready.len()
}

// enqueueReq adds p to its owner's aggregation buffer and, under the
// pipelining policy, flushes the buffer when it reaches the aggregation
// limit.
func (rt *RT) enqueueReq(p gptr.Ptr) {
	dst := int(p.Node)
	if len(rt.agg[dst]) == 0 {
		rt.aggDests = append(rt.aggDests, dst)
	}
	rt.agg[dst] = append(rt.agg[dst], p)
	rt.aggCount++
	if rt.planner {
		if rt.plan.curHist[dst] == 0 {
			rt.plan.owners++
		}
		rt.plan.curHist[dst]++
		rt.plan.phaseHist[dst]++
	}
	if rt.Cfg.Pipeline && len(rt.agg[dst]) >= rt.destLimit(dst) {
		rt.flushDest(dst)
	}
}

// flushDest sends the pending requests for one destination, in chunks of at
// most the destination's aggregation limit per message.
func (rt *RT) flushDest(dst int) {
	ptrs := rt.agg[dst]
	if len(ptrs) == 0 {
		return
	}
	if rt.planner && !rt.rttMark[dst] && rt.pendingByDest[dst] == 0 {
		// Arm a round-trip sample: nothing is in flight to dst, so the
		// first reply back answers this send.
		rt.rttMark[dst] = true
		rt.rttSentAt[dst] = rt.EP.Node.Now()
	}
	limit := rt.destLimit(dst)
	for lo := 0; lo < len(ptrs); lo += limit {
		hi := lo + limit
		if hi > len(ptrs) {
			hi = len(ptrs)
		}
		if rt.trc != nil {
			now := rt.EP.Node.Now()
			for _, p := range ptrs[lo:hi] {
				rt.trc.Event(obs.KFetchReq, now, int64(p.Key()), int64(dst))
			}
		}
		req := rt.pool.getReq()
		req.ptrs = append(rt.pool.getPtrs(), ptrs[lo:hi]...)
		rt.EP.Send(dst, rt.proto.hReq, req,
			msgHeaderBytes+gptr.PtrBytes*len(req.ptrs))
		rt.pendingReplies++
		rt.pendingByDest[dst]++
		rt.st.ReqMsgs++
	}
	rt.aggCount -= len(ptrs)
	rt.agg[dst] = rt.agg[dst][:0]
}

// FlushAll sends every pending request buffer: in destination-arrival order
// normally, in ascending owner order in planner mode (owner-sorted batches,
// matching the owner-major service order of the ready queue). Both orders
// are deterministic.
func (rt *RT) FlushAll() {
	if rt.planner {
		if rt.aggCount > 0 {
			for dst := range rt.agg {
				rt.flushDest(dst)
			}
		}
		rt.aggDests = rt.aggDests[:0]
		return
	}
	for _, dst := range rt.aggDests {
		rt.flushDest(dst)
	}
	rt.aggDests = rt.aggDests[:0]
}

// Drain runs the scheduler until all spawned work (including transitively
// spawned threads) has completed: the ready queue is empty, no requests are
// buffered, and no replies are outstanding. While waiting for replies the
// node serves incoming requests from other nodes. If an owner node becomes
// unreachable (retry budget exhausted under fault injection), the threads
// waiting on its objects are abandoned — counted and surfaced through Err —
// instead of waiting forever.
func (rt *RT) Drain() {
	nd := rt.EP.Node
	nd.SetIdleCategory(sim.FetchStall) // waits in here block on fetches
	defer nd.SetIdleCategory(sim.Idle)
	pollEvery := rt.Cfg.pollEvery()
	for {
		rt.EP.Poll()
		ran := 0
		for rt.readyLen() > 0 && ran < pollEvery {
			rt.runOne()
			ran++
		}
		if rt.readyLen() > 0 {
			continue
		}
		if rt.aggCount > 0 {
			// Out of local work: requests can no longer be usefully
			// deferred (this is the only send point when Pipeline=false).
			rt.FlushAll()
			continue
		}
		if rt.pendingReplies > 0 {
			if rt.abandonUnreachable() {
				continue
			}
			// An owner that crashed after acking our requests will never
			// reply; keep detection traffic flowing so the wait below stays
			// deadline-bounded (no-op outside crash fault mode).
			for dst, n := range rt.pendingByDest {
				if n > 0 {
					rt.EP.ProbeOwner(dst)
				}
			}
			rt.EP.WaitAndDispatch()
			continue
		}
		return
	}
}

// abandonUnreachable drops all fetch state destined for owners declared
// unreachable, reporting whether it made progress. The table scan's effects
// are order-independent (counter sums and deletions only), so the map
// iteration order cannot perturb determinism.
func (rt *RT) abandonUnreachable() bool {
	if !rt.EP.Degraded() {
		return false
	}
	progress := false
	for p, e := range rt.table {
		if e.arrived || !rt.EP.Unreachable(int(p.Node)) {
			continue
		}
		rt.st.Abandoned += int64(len(e.waiters))
		rt.waiting -= len(e.waiters)
		delete(rt.table, p)
		rt.pool.putEntry(e)
		progress = true
	}
	for dst := range rt.pendingByDest {
		if rt.pendingByDest[dst] > 0 && rt.EP.Unreachable(dst) {
			rt.pendingReplies -= rt.pendingByDest[dst]
			rt.pendingByDest[dst] = 0
			progress = true
		}
	}
	if progress && rt.err == nil {
		rt.err = fmt.Errorf("core: abandoned threads waiting on unreachable owners: %w",
			fm.ErrUnreachable)
	}
	return progress
}

// runOne dispatches the next ready thread under the configured queue
// discipline.
func (rt *RT) runOne() {
	var e readyEntry
	switch {
	case rt.planner:
		e = rt.oq.pop()
	case rt.Cfg.LIFO:
		e = rt.ready.popBack()
	default:
		e = rt.ready.pop()
	}
	n := rt.EP.Node
	var t0 sim.Time
	if rt.trc != nil {
		t0 = n.Now()
	}
	n.Charge(sim.SchedOv, execCost)
	n.Touch(e.key)
	rt.st.ThreadsRun++
	e.fn(e.obj)
	if rt.trc != nil {
		rt.trc.EventDur(obs.KThread, t0, n.Now()-t0, int64(e.key), 0)
	}
}

// ForAll is the strip-mined top-level concurrent loop: it runs
// spawnIter(i) for every i in [0, n), admitting at most Strip top-level
// iterations per strip and draining all (transitively spawned) work between
// strips. Renamed copies are discarded at strip boundaries, bounding memory.
func (rt *RT) ForAll(n int, spawnIter func(i int)) {
	if rt.planner {
		rt.forAllPlanned(n, spawnIter)
		return
	}
	s := rt.Cfg.Strip
	if s <= 0 {
		s = n
	}
	for lo := 0; lo < n; lo += s {
		hi := lo + s
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			spawnIter(i)
		}
		if rt.Cfg.Pipeline {
			rt.FlushAll()
		}
		rt.Drain()
		rt.endStrip()
		if rt.trc != nil {
			rt.trc.Event(obs.KStrip, rt.EP.Node.Now(), int64(lo), int64(hi-lo))
		}
	}
}

// endStrip discards the strip's renamed copies, recycling the table entries.
func (rt *RT) endStrip() {
	rt.checkStripInvariant()
	rt.dropCopies()
}

func (rt *RT) checkStripInvariant() {
	if rt.waiting != 0 || rt.pendingReplies != 0 || rt.aggCount != 0 {
		panic(fmt.Sprintf("core: strip ended with waiting=%d pending=%d buffered=%d",
			rt.waiting, rt.pendingReplies, rt.aggCount))
	}
}

func (rt *RT) dropCopies() {
	for _, e := range rt.table {
		rt.pool.putEntry(e)
	}
	clear(rt.table)
	rt.arrivedBytes = 0
}

// trackPeak records the peak number of outstanding (suspended + ready)
// threads, the strip-size/memory metric of the paper's table.
func (rt *RT) trackPeak() {
	out := int64(rt.waiting + rt.readyLen())
	if out > rt.st.PeakOutstanding {
		rt.st.PeakOutstanding = out
	}
}

// readyEntry is a thread whose object is available.
type readyEntry struct {
	key uint64
	obj gptr.Object
	fn  Thread
}

// readyQueue is a FIFO of ready threads. FIFO order preserves the
// contiguity of same-object groups released by one reply.
type readyQueue struct {
	items []readyEntry
	head  int
}

func (q *readyQueue) len() int { return len(q.items) - q.head }

func (q *readyQueue) push(e readyEntry) {
	q.items = append(q.items, e)
}

func (q *readyQueue) pop() readyEntry {
	e := q.items[q.head]
	q.items[q.head] = readyEntry{} // release references
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return e
}

// popBack removes the most recently pushed entry (LIFO discipline).
func (q *readyQueue) popBack() readyEntry {
	last := len(q.items) - 1
	e := q.items[last]
	q.items[last] = readyEntry{}
	q.items = q.items[:last]
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return e
}
