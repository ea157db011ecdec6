package core

import (
	"math"

	"dpa/internal/obs"
	"dpa/internal/sim"
)

// This file is the cross-phase half of planner mode (DESIGN.md §13). A cold
// planner has no prediction for its first strip, so plannedDestLimit batches
// each owner's requests up to the 8×AggLimit cap and splits heavier owners
// into several messages. A repeated phase — the next PageRank iteration, the
// next BFS level — has measured evidence instead: the previous phase of the
// same kind fetched from each owner a volume the new phase is likely to
// repeat. The driver keeps that per-owner volume per (phase kind, node)
// across phase boundaries; at the first planned loop of the next phase the
// planner stages it as the prediction source and, because it is a measured
// whole-phase volume rather than a one-strip extrapolation, batches each
// owner's predicted strip volume uncapped. The first strip itself stays the
// cold whole-loop plan. The prior is pure simulated-time state (the fold
// runs at the phase seam in node-index order and reads only counters), so it
// preserves the bit-identical contract across engines, repeats, faults, and
// checkpoints.

// Prior is one node's measured history of the last phase of one kind: the
// top-level iterations its planned loops admitted and the fetches it
// directed at each owner. The driver owns it (it outlives the per-phase
// runtime), attaches it before the phase body runs (AttachPrior), and
// refreshes it at the phase seam (FoldPrior).
type Prior struct {
	Iters   int64
	Fetches []int64 // indexed by owner node
}

// usable reports whether the prior holds a phase that planned loops and
// fetched remotely; anything else carries no batching evidence.
func (p *Prior) usable() bool {
	if p == nil || p.Iters <= 0 {
		return false
	}
	for _, f := range p.Fetches {
		if f > 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the prior; the driver clones the history for
// the cross-engine validation run so the two runs never fold into shared
// state.
func (p *Prior) Clone() *Prior {
	return &Prior{Iters: p.Iters, Fetches: append([]int64(nil), p.Fetches...)}
}

// fingerprint folds the prior into a digest for snapshot encodings.
func (p *Prior) fingerprint() uint64 {
	if p == nil {
		return 0
	}
	h := sim.MixFP(0x70726972, uint64(p.Iters)) // "prir"
	h = sim.MixFP(h, uint64(len(p.Fetches)))
	for _, f := range p.Fetches {
		h = sim.MixFP(h, uint64(f))
	}
	return h
}

// EncodeSnapshot writes the prior for the driver's "priors" snapshot
// section.
func (p *Prior) EncodeSnapshot(w *sim.SnapWriter) {
	w.I64(p.Iters)
	w.Int(len(p.Fetches))
	w.U64(p.fingerprint())
}

// AttachPrior hands the runtime the prior for the phase about to run. The
// driver calls it before the phase body; outside planner mode it is a
// no-op.
func (rt *RT) AttachPrior(p *Prior) {
	if rt.planner {
		rt.plan.prior = p
	}
}

// FoldPrior records the finished phase's iteration count and per-owner fetch
// totals into the attached prior. The driver calls it at the phase seam,
// after the phase has fully drained, in node-index order.
func (rt *RT) FoldPrior() {
	ps := &rt.plan
	if ps.prior == nil {
		return
	}
	ps.prior.Iters = ps.phaseIters
	ps.prior.Fetches = append(ps.prior.Fetches[:0], ps.phaseHist...)
}

// stagePrior runs at the first planned loop of a phase. When the attached
// prior is usable it stages the per-owner fetch totals in the running
// histogram, so the first beginPlanStrip promotes them to the prediction
// source and plannedDestLimit batches from measured volumes, uncapped.
func (rt *RT) stagePrior() {
	ps := &rt.plan
	if !ps.prior.usable() {
		return
	}
	owners := 0
	for i, f := range ps.prior.Fetches {
		if i >= len(ps.curHist) {
			break
		}
		if f > math.MaxInt32 {
			f = math.MaxInt32
		}
		ps.curHist[i] = int32(f)
		if f > 0 {
			owners++
		}
	}
	ps.owners = owners
	ps.lastIters = int(ps.prior.Iters)
	ps.warm = true
	rt.st.PlanPriorHits++
	if rt.trc != nil {
		rt.trc.Event(obs.KPrior, rt.EP.Node.Now(), int64(rt.ctl.strip), int64(rt.ctl.loop))
	}
}
