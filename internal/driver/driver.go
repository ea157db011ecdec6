// Package driver provides the common harness for running one SPMD
// application phase under any of the three runtimes (DPA, software caching,
// blocking) on a simulated machine, and for collecting merged statistics.
package driver

import (
	"errors"
	"fmt"

	"dpa/internal/blocking"
	"dpa/internal/caching"
	"dpa/internal/core"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Runtime is the common surface of the three runtimes. Applications are
// written against it once and run under any scheme.
type Runtime interface {
	// Spawn registers a pointer-labeled non-blocking thread.
	Spawn(p gptr.Ptr, fn func(obj gptr.Object))
	// Drain completes all spawned (and transitively spawned) work.
	Drain()
	// ForAll is the top-level concurrent loop (strip-mined under DPA).
	ForAll(n int, spawnIter func(i int))
	// Stats returns the node's runtime counters.
	Stats() stats.RTStats
	// Err returns the node's degradation error (work abandoned because a
	// peer became unreachable under fault injection), nil for a clean run.
	Err() error
}

// Interface conformance: each runtime's Thread is an alias of the
// interface's thread type, so the runtimes satisfy it directly.
var (
	_ Runtime = (*core.RT)(nil)
	_ Runtime = (*caching.RT)(nil)
	_ Runtime = (*blocking.RT)(nil)
)

// Kind names a runtime scheme.
type Kind string

// The available runtime schemes.
const (
	DPA      Kind = "dpa"
	Caching  Kind = "caching"
	Blocking Kind = "blocking"
)

// Spec selects a runtime scheme and its configuration for a run. The
// blocking runtime has no configuration. Build a Spec with DPASpec,
// CachingSpec or BlockingSpec, then set any further field directly, e.g.
// spec.Core.LIFO = true or spec.Caching.Capacity = 128.
type Spec struct {
	Kind    Kind
	Core    core.Config    // used when Kind == DPA
	Caching caching.Config // used when Kind == Caching
}

// SpecOption customizes a Spec built by DPASpec, CachingSpec, or
// BlockingSpec. Options that target a field of a runtime the Spec does not
// select are recorded but have no effect on the run.
type SpecOption func(*Spec)

// WithAggLimit sets the DPA aggregation limit: the maximum number of
// pointers per request message (1 disables aggregation, 0 means unlimited).
func WithAggLimit(n int) SpecOption { return func(s *Spec) { s.Core.AggLimit = n } }

// WithPlanner enables DPA's predictive communication planner: at every strip
// boundary a closed-form cost model — fed by the previous strip's reuse
// summary (per-owner fetch histogram, round-trip estimates, byte volumes) —
// chooses the next strip size and the per-destination aggregation limits
// before the strip runs, and renamed copies are pinned for exactly their
// reuse region instead of being dropped wholesale. The planner schedules
// ready threads owner-major, and a bounded reactive controller corrects
// only when the model mispredicts. When a multi-phase runner passes a
// History via WithHistory, a repeated phase batches its first requests from
// the previous phase's per-owner fetch totals. Mutually exclusive with
// Core.LIFO.
func WithPlanner() SpecOption { return func(s *Spec) { s.Core.Planner = true } }

// WithPipeline enables or disables DPA message pipelining (eager request
// flushing that overlaps communication with thread execution).
func WithPipeline(on bool) SpecOption { return func(s *Spec) { s.Core.Pipeline = on } }

// DPASpec returns a Spec for DPA with the given strip size and the default
// communication optimizations enabled, then applies opts.
func DPASpec(strip int, opts ...SpecOption) Spec {
	c := core.Default()
	c.Strip = strip
	return applySpec(Spec{Kind: DPA, Core: c}, opts)
}

// CachingSpec returns a Spec for the software-caching runtime.
func CachingSpec(opts ...SpecOption) Spec {
	return applySpec(Spec{Kind: Caching, Caching: caching.Default()}, opts)
}

// BlockingSpec returns a Spec for the blocking runtime.
func BlockingSpec(opts ...SpecOption) Spec {
	return applySpec(Spec{Kind: Blocking}, opts)
}

func applySpec(s Spec, opts []SpecOption) Spec {
	for _, o := range opts {
		o(&s)
	}
	return s
}

// Validate checks the spec's selected runtime configuration.
func (s Spec) Validate() error {
	switch s.Kind {
	case DPA:
		return s.Core.Validate()
	case Caching:
		return s.Caching.Validate()
	case Blocking:
		return nil
	}
	return fmt.Errorf("driver: unknown runtime kind %q", string(s.Kind))
}

// String names the spec for table rows.
func (s Spec) String() string {
	switch s.Kind {
	case DPA:
		if s.Core.Planner {
			return fmt.Sprintf("DPA-P(%d)", s.Core.Strip)
		}
		return fmt.Sprintf("DPA(%d)", s.Core.Strip)
	case Caching:
		return "Caching"
	case Blocking:
		return "Blocking"
	}
	return string(s.Kind)
}

// Protos bundles the three runtimes' registered protocols on one net.
type Protos struct {
	Net      *fm.Net
	core     *core.Proto
	caching  *caching.Proto
	blocking *blocking.Proto
}

// NewProtos creates a net with all runtime protocols registered.
func NewProtos() *Protos {
	net := fm.NewNet()
	return &Protos{
		Net:      net,
		core:     core.RegisterProto(net),
		caching:  caching.RegisterProto(net),
		blocking: blocking.RegisterProto(net),
	}
}

// NewRuntime instantiates the runtime selected by spec on one node. It
// validates the spec's configuration and returns a descriptive error when it
// is rejected.
func (p *Protos) NewRuntime(spec Spec, ep *fm.EP, space *gptr.Space) (Runtime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case DPA:
		return core.New(p.core, ep, space, spec.Core), nil
	case Caching:
		return caching.New(p.caching, ep, space, spec.Caching), nil
	case Blocking:
		return blocking.New(p.blocking, ep, space), nil
	}
	panic("driver: unreachable kind " + string(spec.Kind)) // Validate rejected it
}

// RunOption adjusts how RunPhase executes a phase (cross-engine validation,
// cross-phase history) without widening its signature. Everything about the
// simulated machine — engine, tuning, tracing, faults, checkpoints — is set
// on machine.Config.
type RunOption func(*runConfig)

type runConfig struct {
	validate  bool
	history   *History
	phaseKind string
}

// WithValidation runs the phase a second time under the other engine and
// records an error wrapping ErrEngineDiverged on the primary run if the two
// runs' statistics differ — a determinism check for the engine pair. The
// body must be re-runnable: it is executed twice, so any state it mutates
// outside the runtime (e.g. application arrays) is updated twice.
func WithValidation() RunOption {
	return func(rc *runConfig) { rc.validate = true }
}

// ErrBadSpec is wrapped by the Err of a Run whose Spec failed validation;
// test with errors.Is. Such a run simulates nothing.
var ErrBadSpec = errors.New("driver: invalid spec")

// ErrEngineDiverged is wrapped by the Err of a run made WithValidation whose
// check run under the other engine produced different statistics; the
// message carries the diff. The primary run's results are still returned.
var ErrEngineDiverged = errors.New("driver: engine validation failed")

// RunPhase executes one SPMD phase: body runs on every node with its
// runtime; a barrier closes the phase (nodes keep serving until everyone is
// done). The returned Run has per-node breakdowns and merged runtime
// counters. mcfg alone picks the engine and its tuning, tracing, faults and
// checkpoints; options only cross-validate the engines or carry a
// multi-phase history. A spec or machine config that fails validation
// returns an empty Run whose Err wraps ErrBadSpec or the config error
// (a *sim.TuningError for a bad worker count). An engine deadlock returns
// the partial Run with a *sim.DeadlockError (sim.ErrDeadlock) in its Err.
func RunPhase(mcfg machine.Config, space *gptr.Space, spec Spec,
	body func(rt Runtime, ep *fm.EP, nd *machine.Node), opts ...RunOption) stats.Run {

	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	if err := spec.Validate(); err != nil {
		return stats.Run{Err: fmt.Errorf("%w: %w", ErrBadSpec, err)}
	}
	if err := mcfg.Validate(); err != nil {
		return stats.Run{Err: err}
	}
	// The validation run must see the same pre-phase history as the
	// primary run without the two folding into one, so it gets a deep copy
	// taken before the primary run mutates the history.
	var checkHist *History
	if rc.validate && rc.history != nil {
		checkHist = rc.history.Clone()
	}
	run := runOnce(mcfg, space, spec, body, rc.history, rc.phaseKind)
	if rc.validate {
		other := mcfg
		// The check run must not re-record into the caller's tracer: it
		// would duplicate every event and advance the phase offset twice.
		// Likewise it must not re-fire the checkpoint: Deliver is one-shot.
		other.Obs = nil
		other.Checkpoint = nil
		if mcfg.Engine == sim.Parallel {
			other.Engine = sim.Sequential
		} else {
			other.Engine = sim.Parallel
		}
		if err := other.Validate(); err != nil {
			run.AddErr(fmt.Errorf("driver: validation engine %v: %w", other.Engine, err))
			return run
		}
		check := runOnce(other, space, spec, body, checkHist, rc.phaseKind)
		if diff := run.Diff(check); diff != "" {
			run.AddErr(fmt.Errorf("%w (%v vs %v): %s", ErrEngineDiverged, mcfg.Engine, other.Engine, diff))
		}
	}
	return run
}

// runOnce executes the phase on a fresh machine and collects statistics.
// Under fault injection the endpoints quiesce the reliability protocol once
// before the closing barrier — while every peer still polls and acks — and
// once after, for the barrier traffic itself; both are no-ops when the
// layer is off.
func runOnce(mcfg machine.Config, space *gptr.Space, spec Spec,
	body func(rt Runtime, ep *fm.EP, nd *machine.Node),
	hist *History, kind string) stats.Run {

	ck := mcfg.Checkpoint
	protos := NewProtos()
	m := machine.New(mcfg)
	rts := make([]Runtime, mcfg.Nodes)
	eps := make([]*fm.EP, mcfg.Nodes)
	// Resolve the phase's priors on the host before the machine runs: node
	// bodies only read the slice, so the parallel engine's workers never
	// race on the history's map.
	var priors []*core.Prior
	if hist != nil && spec.Kind == DPA && spec.Core.Planner {
		priors = hist.priors(kind, mcfg.Nodes)
	}
	var ckErr error
	if at, ok := ck.Target(); ok {
		m.CheckpointAt(at, func() {
			snap := captureSnapshot(ck, m, rts, eps, hist)
			if ck.Verify != nil {
				if d := ck.Verify.Diff(snap); d != "" {
					ckErr = &sim.SnapshotDivergedError{Detail: d}
				}
			}
			ck.MarkDone()
			if ck.Deliver != nil {
				ck.Deliver(snap, ckErr)
			}
		})
	}
	makespan, engErr := m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(protos.Net, nd)
		rt, err := protos.NewRuntime(spec, ep, space)
		if err != nil {
			panic(err) // spec was validated before the machine started
		}
		rts[nd.ID()] = rt
		eps[nd.ID()] = ep
		if priors != nil {
			rt.(*core.RT).AttachPrior(priors[nd.ID()])
		}
		body(rt, ep, nd)
		ep.Quiesce()
		ep.Barrier()
		ep.Quiesce()
	})
	ck.Advance(makespan)
	run := stats.Collect(m, makespan)
	run.AddErr(engErr)
	run.AddErr(ckErr)
	// Crashed nodes surface as typed partial-result errors, in node order so
	// the joined error string is deterministic.
	for _, nd := range m.Nodes() {
		if nd.Crashed {
			run.AddErr(&machine.CrashError{Node: nd.ID(), At: nd.CrashedAt})
		}
	}
	// Fold each node's per-owner fetch totals into its prior at the phase
	// seam, in node-index order. Host-real-time never enters the fold, so
	// the history stays a pure function of simulated history.
	if priors != nil {
		for _, rt := range rts {
			if rt != nil {
				rt.(*core.RT).FoldPrior()
			}
		}
	}
	for _, rt := range rts {
		if rt == nil {
			continue // node never reached its body (deadlocked machine)
		}
		run.MergeRT(rt.Stats())
		run.AddErr(rt.Err())
	}
	// Node 0's strip-adaptation trace is the run's representative (every
	// node adapts independently; recording all of them would swamp tables).
	if len(rts) > 0 {
		if tr, ok := rts[0].(interface{ AdaptTrace() []stats.AdaptPoint }); ok {
			run.Adapt = tr.AdaptTrace()
		}
	}
	for _, ep := range eps {
		if ep == nil {
			continue
		}
		run.MergeFaults(ep.FaultStats())
		run.AddErr(ep.Err())
	}
	return run
}

// snapshotter is the optional per-runtime state encoder; runtimes that
// implement it contribute an entry to the snapshot's "rt" section.
type snapshotter interface {
	EncodeSnapshot(w *sim.SnapWriter)
}

// captureSnapshot serializes the run's complete state at a checkpoint
// boundary: engine scheduling state ("procs"), machine-level node state
// ("machine"), the messaging layer including reliability windows ("fm"), and
// runtime tables ("rt"). It runs inside the engine's checkpoint hook, when
// every simulated process is parked, so all state is quiescent.
func captureSnapshot(ck *machine.CheckpointSpec, m *machine.Machine,
	rts []Runtime, eps []*fm.EP, hist *History) *sim.Snapshot {

	snap := &sim.Snapshot{Version: sim.SnapshotVersion, Meta: ck.Meta(len(eps))}
	snap.Add("procs", m.SnapshotProcs)
	snap.Add("machine", func(w *sim.SnapWriter) {
		nodes := m.Nodes()
		w.Int(len(nodes))
		for _, nd := range nodes {
			nd.EncodeSnapshot(w)
		}
	})
	snap.Add("fm", func(w *sim.SnapWriter) {
		w.Int(len(eps))
		for _, ep := range eps {
			if ep == nil {
				w.Bool(false)
				continue
			}
			w.Bool(true)
			ep.EncodeSnapshot(w)
		}
	})
	snap.Add("rt", func(w *sim.SnapWriter) {
		w.Int(len(rts))
		for _, rt := range rts {
			enc, ok := rt.(snapshotter)
			if !ok {
				w.Bool(false)
				continue
			}
			w.Bool(true)
			enc.EncodeSnapshot(w)
		}
	})
	snap.Add("priors", func(w *sim.SnapWriter) {
		if hist == nil {
			w.Bool(false)
			return
		}
		w.Bool(true)
		hist.EncodeSnapshot(w)
	})
	return snap
}
