// Package scream is a Go implementation of the SCREAM approach for
// efficient distributed scheduling with physical (SINR) interference in
// wireless mesh networks (Brar, Blough, Santi; ICDCS 2008).
//
// The package provides:
//
//   - Mesh construction: planned grids, unplanned uniform deployments, and
//     line topologies with log-distance/log-normal propagation, fixed or
//     heterogeneous transmit power, gateway-rooted routing forests and
//     aggregated traffic demands.
//   - The SCREAM primitive (a collision-resilient, carrier-sensing flood
//     that computes a network-wide OR in K >= ID(G_S) slots), leader
//     election built on it, and the two distributed STDMA schedulers of the
//     paper: PDD (randomized active selection) and FDD (fully
//     deterministic), with proven emulation of the centralized
//     GreedyPhysical algorithm (Theorem 4).
//   - The centralized GreedyPhysical baseline and a schedule verifier for
//     the physical interference model with data and ACK sub-slots.
//   - Two execution backends: an ideal SINR backend and a packet-level
//     radio backend with per-node clock skew and energy-detect carrier
//     sensing.
//   - The full benchmark harness regenerating every figure of the paper's
//     evaluation (Figures 4-9) plus design ablations, and the Mica2 mote
//     experiment of Section V.
//
// See the examples directory for runnable end-to-end programs and
// EXPERIMENTS.md for paper-vs-measured results.
package scream

import (
	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/exp"
	"scream/internal/phys"
	"scream/internal/sched"
	"scream/internal/stats"
)

// Aliases re-exporting the library's central types so that downstream users
// need only import the root package.
type (
	// Link is a directed data transmission (From sends, To ACKs).
	Link = phys.Link
	// Placement is one link scheduled on one channel of a slot.
	Placement = phys.Placement
	// Schedule is an STDMA schedule: slots of concurrent links.
	Schedule = sched.Schedule
	// Ordering selects the edge ordering of GreedyPhysical.
	Ordering = sched.Ordering
	// Timing converts slot payloads into slot durations.
	Timing = core.Timing
	// Result is a protocol run's outcome (schedule + cost accounting).
	Result = core.Result
	// Variant selects the distributed protocol (PDD or FDD).
	Variant = core.Variant
	// Backend executes protocol primitives (ideal or packet-level).
	Backend = core.Backend
	// SimTime is simulated time in nanoseconds.
	SimTime = des.Time
	// Figure is a set of named measurement series with axes.
	Figure = stats.Figure
	// ExperimentOptions scales the figure-regeneration harness: Seeds per
	// point, Quick sweeps, and Workers for the concurrent cell-grid
	// engine (results are identical for any worker count).
	ExperimentOptions = exp.Options
)

// Protocol variants.
const (
	PDD = core.PDD
	FDD = core.FDD
)

// GreedyPhysical edge orderings.
const (
	// ByHeadIDDesc is the ordering FDD emulates (Theorem 4).
	ByHeadIDDesc = sched.ByHeadIDDesc
	// ByDemandDesc schedules heavier edges first.
	ByDemandDesc = sched.ByDemandDesc
	// ByLengthDesc schedules longer links first.
	ByLengthDesc = sched.ByLengthDesc
)

// Simulated-time units.
const (
	Nanosecond  = des.Nanosecond
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
)

// DefaultTiming returns the evaluation's slot timing model: 15-byte SCREAMs
// at 54 Mb/s, 1000-byte data packets, 14-byte ACKs, 1 us clock skew bound.
func DefaultTiming() Timing { return core.DefaultTiming() }

// LinearLength returns the serialized schedule length for the given demands.
func LinearLength(demands []int) int { return sched.LinearLength(demands) }

// ImprovementOverLinear returns 100*(TD-L)/TD, the paper's quality metric.
func ImprovementOverLinear(length, totalDemand int) float64 {
	return sched.ImprovementOverLinear(length, totalDemand)
}
