package driver

import (
	"dpa/internal/core"
	"dpa/internal/sim"
)

// History carries the planner's cross-phase priors (core.Prior) across the
// phase boundaries of one multi-phase run: one prior per (phase kind, node).
// The application runner creates one History per run and hands it to each
// RunPhase via WithHistory; under a planner spec the driver attaches each
// node's prior before the phase body runs and folds the phase's per-owner
// fetch totals back at the seam, in node-index order, so the history is a
// pure function of simulated history. It is intentionally not part of a
// Spec: specs are reusable values, and a mutable history inside one would let
// a second run of the same spec start from the first, breaking the
// bit-identical repeat contract.
type History struct {
	kinds map[string][]*core.Prior
	order []string // insertion order, for deterministic encoding
}

// NewHistory returns an empty history. One history should span exactly one
// multi-phase run.
func NewHistory() *History {
	return &History{kinds: make(map[string][]*core.Prior)}
}

// priors returns the per-node priors for a phase kind, creating empty ones
// on first use. Creation happens on the host before the machine runs, so
// concurrent node bodies only ever read the returned slice.
func (h *History) priors(kind string, nodes int) []*core.Prior {
	ps := h.kinds[kind]
	if ps == nil {
		ps = make([]*core.Prior, nodes)
		for i := range ps {
			ps[i] = &core.Prior{}
		}
		h.kinds[kind] = ps
		h.order = append(h.order, kind)
	}
	return ps
}

// Clone deep-copies the history. RunPhase uses it to give the
// WithValidation check run the same pre-phase priors as the primary run
// without the two runs folding into one.
func (h *History) Clone() *History {
	c := NewHistory()
	for _, kind := range h.order {
		src := h.kinds[kind]
		dst := make([]*core.Prior, len(src))
		for i, p := range src {
			dst[i] = p.Clone()
		}
		c.kinds[kind] = dst
		c.order = append(c.order, kind)
	}
	return c
}

// EncodeSnapshot writes the history for the snapshot's "priors" section:
// kinds in insertion order (the order phases first ran, itself
// deterministic), each with its per-node priors.
func (h *History) EncodeSnapshot(w *sim.SnapWriter) {
	w.Int(len(h.order))
	for _, kind := range h.order {
		w.Str(kind)
		ps := h.kinds[kind]
		w.Int(len(ps))
		for _, p := range ps {
			p.EncodeSnapshot(w)
		}
	}
}

// WithHistory hands the phase the run's history and names the phase kind
// its priors are kept under (repeated phases of the same kind share them;
// distinct kinds — e.g. the E and H halves of an EM3D iteration — get their
// own). A no-op unless the spec is DPA with the planner, so runners can pass
// their history unconditionally.
func WithHistory(h *History, kind string) RunOption {
	return func(rc *runConfig) { rc.history = h; rc.phaseKind = kind }
}
