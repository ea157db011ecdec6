// Package dpa is a Go implementation of Dynamic Pointer Alignment (DPA),
// the runtime technique of Zhang & Chien, "Dynamic Pointer Alignment:
// Tiling and Communication Optimizations for Parallel Pointer-based
// Computations" (PPoPP 1997), together with everything needed to reproduce
// the paper's evaluation: a deterministic virtual-time multicomputer
// simulator modeled on the CRAY T3D, a Fast-Messages-style active-message
// layer, software-caching and blocking comparator runtimes, a thread
// partitioner for a small pointer-program IR, and the two applications
// (Barnes-Hut and 2D FMM).
//
// The quick path:
//
//	space := dpa.NewSpace(nodes)             // build a global object space
//	p := space.Alloc(owner, obj)             // place objects on owners
//	run := dpa.RunPhase(dpa.DefaultT3D(nodes), space, dpa.DPASpec(50),
//	    func(rt dpa.Runtime, ep *dpa.Endpoint, nd *dpa.Node) {
//	        rt.Spawn(p, func(o dpa.Object) { ... }) // pointer-labeled thread
//	        rt.Drain()
//	    })
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package dpa

import (
	"dpa/internal/caching"
	"dpa/internal/core"
	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Core global-space types.
type (
	// Ptr is a global pointer (owner node + address).
	Ptr = gptr.Ptr
	// Object is a value that can live in the global space.
	Object = gptr.Object
	// Space is the distributed object space.
	Space = gptr.Space
)

// Machine and messaging types.
type (
	// MachineConfig describes the simulated multicomputer.
	MachineConfig = machine.Config
	// Node is one simulated processor.
	Node = machine.Node
	// Endpoint is a node's active-message endpoint.
	Endpoint = fm.EP
	// Time is a duration or instant in simulated cycles.
	Time = sim.Time
	// EngineKind selects the simulation engine on MachineConfig.Engine:
	// Sequential (the zero value) or Parallel.
	EngineKind = sim.EngineKind
	// EngineTuning is the parallel engine's host-performance knob on
	// MachineConfig.EngineTuning: Workers, the worker count (0, the default,
	// means min(GOMAXPROCS, nodes); explicit values must be in [1, nodes]).
	EngineTuning = sim.Tuning
)

// The simulation engines, selected by MachineConfig.Engine. Every engine
// produces bit-identical simulation results; only host time differs:
//
//	cfg := dpa.DefaultT3D(nodes)
//	cfg.Engine = dpa.Parallel
//	cfg.EngineTuning = dpa.EngineTuning{Workers: 8}
//	dpa.RunPhase(cfg, space, spec, body)
const (
	// Sequential runs one simulated node at a time, in deterministic
	// virtual-time order: the default, and the baseline every other engine
	// must match bit for bit.
	Sequential = sim.Sequential
	// Parallel is the sharded work-stealing engine: simulated nodes are
	// partitioned across worker shards and run truly in parallel within
	// conservative lookahead windows.
	Parallel = sim.Parallel
)

// ErrBadSpec is the sentinel matched by errors.Is when RunPhase rejects a
// Spec (negative strip, Planner with LIFO, ...); the returned run simulates
// nothing and carries the reason in its Err.
var ErrBadSpec = driver.ErrBadSpec

// ErrEngineDiverged is the sentinel matched by errors.Is when a phase run
// WithValidation produced different statistics under the other engine; the
// run's Err carries the diff.
var ErrEngineDiverged = driver.ErrEngineDiverged

// ErrDeadlock is the sentinel matched by errors.Is when the engine found
// every simulated process blocked with no message in flight. RunPhase
// returns the partial run with a *sim.DeadlockError, carrying a
// per-process state dump, in its Err.
var ErrDeadlock = sim.ErrDeadlock

// ErrBadEngine is the sentinel matched by errors.Is for rejected engine
// tuning (worker count out of [1, nodes]). RunPhase returns a run that
// simulates nothing with an Err wrapping it.
var ErrBadEngine = sim.ErrBadTuning

// Runtime selection types.
type (
	// Runtime is the common surface of the DPA, caching, and blocking
	// runtimes.
	Runtime = driver.Runtime
	// Spec selects a runtime scheme and its configuration. Build one with
	// DPASpec, CachingSpec or BlockingSpec and set further fields directly
	// (spec.Core.LIFO = true, spec.Caching.Capacity = 128).
	Spec = driver.Spec
	// DPAConfig configures the DPA runtime (strip size, aggregation limit,
	// pipelining, poll placement).
	DPAConfig = core.Config
	// CachingConfig configures the software-caching comparator.
	CachingConfig = caching.Config
	// RunStats is the merged result of a simulated phase.
	RunStats = stats.Run
	// Breakdown is one node's accumulated cycle and traffic counters.
	Breakdown = stats.Breakdown
	// RTStats are the merged runtime-level counters of a run.
	RTStats = stats.RTStats
)

// Fault-injection and reliability types.
type (
	// FaultConfig couples fault-injection parameters with the reliability
	// protocol's knobs; the zero value means no faults.
	FaultConfig = machine.FaultConfig
	// FaultParams are the seeded message-fault rates (drop, duplicate,
	// jitter, stall).
	FaultParams = sim.FaultParams
	// FaultStats are the merged fault and recovery counters of a run.
	FaultStats = stats.FaultStats
)

// Observability types.
type (
	// Tracer is the structured virtual-time event tracer: per node,
	// coalesced charge spans plus discrete runtime events, exportable as
	// Chrome trace_event JSON via WriteChromeTrace.
	Tracer = obs.Tracer
	// MetricsRegistry holds named counters and gauges, exportable as
	// Prometheus text and JSON; see RunStats.Metrics.
	MetricsRegistry = obs.Registry
)

// NewTracer creates a tracer for the given node count; eventCap bounds the
// per-node event ring (<= 0 selects the default). Attach it with
// MachineConfig.Obs; one tracer may span several consecutive phases.
func NewTracer(nodes, eventCap int) *Tracer { return obs.NewTracer(nodes, eventCap) }

// ErrUnreachable is the sentinel error wrapped by a run's Err when a node
// exhausted its retransmission budget to a peer; test with errors.Is.
var ErrUnreachable = fm.ErrUnreachable

// ErrCrashed is the sentinel error wrapped by every *CrashError; test with
// errors.Is. A run whose Err wraps it completed with partial results: the
// crashed nodes' contributions are missing and the surviving nodes' barriers
// shrank to the live set.
var ErrCrashed = machine.ErrCrashed

// CrashError reports one node's permanent crash (scheduled by the fault
// plan's CrashRate/CrashAt) on the run's error chain.
type CrashError = machine.CrashError

// Checkpoint and snapshot types.
type (
	// Snapshot is a captured run state at a virtual-time boundary:
	// versioned metadata plus named binary sections covering engine,
	// machine, messaging, and runtime state.
	Snapshot = sim.Snapshot
	// SnapshotMeta identifies when in a run a snapshot was captured.
	SnapshotMeta = sim.SnapshotMeta
	// CheckpointSpec arms a checkpoint (or restore verification) across the
	// phases of a run; attach it with MachineConfig.Checkpoint.
	CheckpointSpec = machine.CheckpointSpec
)

// ErrBadSnapshot is the sentinel matched by errors.Is when snapshot bytes
// fail to decode (truncation, corruption, version mismatch).
var ErrBadSnapshot = sim.ErrBadSnapshot

// ErrSnapshotDiverged is the sentinel matched by errors.Is when a restored
// run's re-captured state does not match the snapshot it was restored from.
var ErrSnapshotDiverged = sim.ErrSnapshotDiverged

// RestoreSnapshot decodes snapshot bytes produced by Snapshot.Encode,
// verifying magic, version, structure, and checksum. Corrupt input returns
// an error wrapping ErrBadSnapshot; it never panics and never returns a
// partially decoded snapshot.
func RestoreSnapshot(data []byte) (*Snapshot, error) { return sim.Restore(data) }

// Nil is the null global pointer.
var Nil = gptr.Nil

// NewSpace creates a global object space for n nodes.
func NewSpace(n int) *Space { return gptr.NewSpace(n) }

// DefaultT3D returns a CRAY T3D-like machine configuration for the given
// node count (150 MHz nodes, FM-style messaging costs, 3D torus).
func DefaultT3D(nodes int) MachineConfig { return machine.DefaultT3D(nodes) }

// SpecOption customizes a Spec built by DPASpec, CachingSpec, or
// BlockingSpec.
type SpecOption = driver.SpecOption

// WithAggLimit sets the DPA aggregation limit (1 disables, 0 unlimited).
func WithAggLimit(n int) SpecOption { return driver.WithAggLimit(n) }

// WithPipeline enables or disables DPA message pipelining.
func WithPipeline(on bool) SpecOption { return driver.WithPipeline(on) }

// WithPlanner enables DPA's predictive communication planner: a closed-form
// cost model chooses each strip's size and per-destination aggregation
// limits at the boundary before the strip runs, and renamed copies are
// pinned for exactly their reuse region (refetches become structurally
// zero under the memory budget). Ready threads run owner-major; a bounded
// reactive controller corrects only when the model mispredicts, and a
// repeated phase of a multi-phase application batches its first requests
// from the previous phase's per-owner fetch totals. Mutually exclusive with
// Core.LIFO.
func WithPlanner() SpecOption { return driver.WithPlanner() }

// DPASpec selects the DPA runtime with the given strip size and the default
// communication optimizations (aggregation + pipelining) enabled, then
// applies opts. The paper's headline configuration is DPASpec(50).
func DPASpec(strip int, opts ...SpecOption) Spec { return driver.DPASpec(strip, opts...) }

// CachingSpec selects the software-caching comparator runtime.
func CachingSpec(opts ...SpecOption) Spec { return driver.CachingSpec(opts...) }

// BlockingSpec selects the blocking comparator runtime.
func BlockingSpec(opts ...SpecOption) Spec { return driver.BlockingSpec(opts...) }

// RunOption adjusts how RunPhase executes a phase.
type RunOption = driver.RunOption

// WithValidation runs the phase under the other engine too; if the two
// runs' statistics diverge, the run's Err wraps ErrEngineDiverged. The body
// is executed twice.
func WithValidation() RunOption { return driver.WithValidation() }

// DefaultFaults returns a FaultConfig injecting message loss at the given
// rate under the given seed, with the reliability protocol enabled. Attach
// it with MachineConfig.Faults; the schedule depends only on the seed and
// each node's program order, so it is identical under both engines.
func DefaultFaults(seed uint64, dropRate float64) FaultConfig {
	return machine.DefaultFaults(seed, dropRate)
}

// RunPhase executes one SPMD phase: body runs on every simulated node with
// its runtime instance; a barrier closes the phase. It returns per-node
// cost breakdowns and merged runtime counters. mcfg selects the engine and
// enables tracing, faults and checkpoints; WithValidation cross-validates
// the two engines. An invalid spec returns a run whose Err wraps
// ErrBadSpec; an invalid machine config, one whose Err wraps the config
// error (ErrBadEngine for a bad worker count).
func RunPhase(mcfg MachineConfig, space *Space, spec Spec,
	body func(rt Runtime, ep *Endpoint, nd *Node), opts ...RunOption) RunStats {
	return driver.RunPhase(mcfg, space, spec, body, opts...)
}
