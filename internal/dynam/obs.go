package dynam

import (
	"scream/internal/obs"
)

// worldObs is the dynamics metric bundle; all handles are nil-safe no-ops
// when the world has no registry attached. Counters are write-only: the
// event streams draw from their own random streams, which observation
// never touches, so it cannot perturb the timeline.
type worldObs struct {
	fails    *obs.Counter
	recovers *obs.Counter
	moves    *obs.Counter
	repairs  *obs.Counter
	rebuilds *obs.Counter
}

// SetObs attaches metrics and tracing to the world: every applied event
// batch then publishes churn counters and emits churn/repair trace events.
// Call before the run starts; both arguments may be nil.
func (w *World) SetObs(r *obs.Registry, tr *obs.Tracer) {
	w.trace = tr
	if r == nil {
		w.obs = nil
		return
	}
	w.obs = &worldObs{
		fails:    r.Counter("scream_dynam_fail_events_total", "applied node-failure events"),
		recovers: r.Counter("scream_dynam_recover_events_total", "applied node-recovery events"),
		moves:    r.Counter("scream_dynam_move_events_total", "applied node-move events"),
		repairs:  r.Counter("scream_dynam_repairs_total", "applied event batches (each triggers one forest repair)"),
		rebuilds: r.Counter("scream_dynam_rebuilds_total", "repairs that fell back to a full forest rebuild"),
	}
}

// publishChange records one applied batch into the attached metrics and
// trace (no-op with nothing attached).
func (w *World) publishChange(ch *Change) {
	if m := w.obs; m != nil {
		m.fails.Add(int64(len(ch.Failed)))
		m.recovers.Add(int64(len(ch.Recovered)))
		m.moves.Add(int64(len(ch.Moved)))
		m.repairs.Inc()
		if ch.Rebuilt {
			m.rebuilds.Inc()
		}
	}
	if w.trace != nil {
		w.trace.Emit("churn",
			obs.I("t", int64(ch.At)),
			obs.N("failed", len(ch.Failed)), obs.N("recovered", len(ch.Recovered)),
			obs.N("moved", len(ch.Moved)))
		w.trace.Emit("repair",
			obs.I("t", int64(ch.At)),
			obs.B("rebuilt", ch.Rebuilt), obs.N("detached", ch.Detached))
	}
}
