package core

import (
	"scream/internal/obs"
	"scream/internal/sched"
)

// MeasuredBackend is the optional backend interface exposing what the
// backend actually executed and billed, independently of the protocol
// layer's own analytic accounting (Result.Screams, Result.Steps). Publishing
// both lets tests and scrapes cross-check that the simulation charges
// exactly what core.Timing says a SCREAM and a handshake slot cost:
//
//	elapsed_ticks == screams*K*ScreamSlot() + handshakes*HandshakeSlot()
//
// IdealBackend implements it.
type MeasuredBackend interface {
	// ScreamCount returns how many SCREAM primitives the backend executed.
	ScreamCount() int
	// HandshakeCount returns how many handshake slots the backend executed.
	HandshakeCount() int
	// K returns the SCREAM length in slots.
	K() int
}

// backendSnapshot captures a MeasuredBackend's counters so a later delta
// isolates one protocol run even when the backend is reused across epochs.
type backendSnapshot struct {
	ok         bool
	screams    int
	handshakes int
}

func snapshotBackend(b Backend) backendSnapshot {
	mb, ok := b.(MeasuredBackend)
	if !ok {
		return backendSnapshot{}
	}
	return backendSnapshot{
		ok:         true,
		screams:    mb.ScreamCount(),
		handshakes: mb.HandshakeCount(),
	}
}

// publish records the completed run into obs.Resolve(cfg.Metrics). Counters
// are split into the protocol layer's analytic view (what Result accounts,
// plus its slot's adds and rollbacks) and the backend's measured view (what
// was actually executed and billed); both are exact int64 event counts, so
// tests assert equality rather than tolerance. Registry lookups here are
// get-or-create on a cold path — Run executes once per epoch, not per slot.
func (p *protoRun) publish(before backendSnapshot) {
	cfg, res := &p.cfg, p.res
	r := obs.Resolve(cfg.Metrics)
	if r == nil {
		return
	}
	variant := `{variant="` + cfg.Variant.String() + `"}`
	r.Counter("scream_core_runs_total"+variant, "completed protocol runs by variant").Inc()
	r.Counter("scream_core_rounds_total", "protocol rounds (slots sealed) across runs").Add(int64(res.Rounds))
	r.Counter("scream_core_steps_total", "greedy augmentation steps across runs").Add(int64(res.Steps))
	r.Counter("scream_core_elections_total", "leader elections across runs").Add(int64(res.Elections))
	r.Counter("scream_core_screams_total", "SCREAM primitives charged by the protocol layer (analytic)").Add(int64(res.Screams))
	r.Counter("scream_core_exec_ticks_total", "simulated protocol execution time in des.Time ticks").Add(int64(res.ExecTime))
	slot := sched.NewSlotCounters(r)
	slot.Adds.Add(p.adds)
	slot.Rollbacks.Add(p.rollbacks)

	if before.ok {
		mb := cfg.Backend.(MeasuredBackend)
		r.Counter("scream_core_screams_measured_total", "SCREAM primitives the backend actually executed").
			Add(int64(mb.ScreamCount() - before.screams))
		r.Counter("scream_core_handshake_slots_measured_total", "handshake slots the backend actually executed").
			Add(int64(mb.HandshakeCount() - before.handshakes))
		r.Gauge("scream_core_scream_length_slots", "SCREAM length K in slots (last run)").Set(int64(mb.K()))
	}
}

// traceTick is the absolute simulated time of a trace event: the backend's
// elapsed clock (which restarts at zero for every run — flow clones a fresh
// backend per epoch) plus the tracer's time base, which the flow driver sets
// to the epoch's absolute start tick before each build. Direct core.Run
// callers get base 0, i.e. run-relative timestamps, exactly as in schema v1.
func (p *protoRun) traceTick() int64 {
	return p.cfg.Trace.TimeBase() + int64(p.cfg.Backend.Elapsed())
}

// traceEmit forwards a point event to cfg.Trace (nil-safe), timestamped at
// the current absolute simulated time with the current round attached.
func (p *protoRun) traceEmit(ev string, fields ...obs.Field) {
	if p.cfg.Trace == nil {
		return
	}
	base := []obs.Field{obs.I("t", p.traceTick()), obs.N("round", p.round)}
	p.cfg.Trace.Emit(ev, append(base, fields...)...)
}

// beginSlot opens the per-round "slot" span covering one slot's greedy
// construction through its seal. Returns 0 (a no-op handle) when tracing is
// disabled.
func (p *protoRun) beginSlot() obs.SpanID {
	if p.cfg.Trace == nil {
		return 0
	}
	return p.cfg.Trace.Begin("slot", p.traceTick(), obs.N("round", p.round))
}

// endSlot closes a round's slot span at seal time, recording how many links
// the sealed slot carries.
func (p *protoRun) endSlot(id obs.SpanID, links int) {
	if p.cfg.Trace == nil {
		return
	}
	p.cfg.Trace.End(id, p.traceTick(), obs.N("links", links))
}

// traceProtocol emits the run-level "protocol" instant: the analytic
// accounting (rounds, steps, screams, exec ticks) plus — when the backend
// is measurable — the backend's executed primitive counts and K. Carrying
// both views in the trace is what lets `screamtrace validate` re-derive the
// exec-tick timing identity
//
//	exec == screams_measured*k*scream_slot + handshakes_measured*hs_slot
//
// offline, with the per-primitive slot costs taken from the enclosing flow
// run span.
func traceProtocol(cfg *Config, res *Result, before backendSnapshot) {
	if cfg.Trace == nil {
		return
	}
	fields := []obs.Field{
		obs.I("t", cfg.Trace.TimeBase()+int64(res.ExecTime)),
		obs.S("variant", cfg.Variant.String()),
		obs.N("rounds", res.Rounds),
		obs.N("steps", res.Steps),
		obs.N("elections", res.Elections),
		obs.N("screams", res.Screams),
		obs.I("exec", int64(res.ExecTime)),
	}
	if before.ok {
		mb := cfg.Backend.(MeasuredBackend)
		fields = append(fields,
			obs.N("screams_measured", mb.ScreamCount()-before.screams),
			obs.N("handshakes_measured", mb.HandshakeCount()-before.handshakes),
			obs.N("k", mb.K()),
		)
	}
	cfg.Trace.Emit("protocol", fields...)
}
