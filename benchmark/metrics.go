package main

// The metric catalogue. BENCHMARK.json lists the same names and units; a test
// checks that the two agree, and writeJSON refuses to print a pass that left
// an end-to-end metric unset.

import (
	"scream"
	"scream/internal/des"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of scream.Run, screamd or the figure suite
// sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s_p50", "s"},
	{"allocs_per_run", "count"},
	{"bytes_per_run", "B"},
	{"setup_heap_mb", "MB"},
	{"goodput_pps", "pkt/s"},
	{"ttfb_s_p50", "s"},
}

// perLayer are the traced pass's numbers, per unit (one run, one session or
// one suite) unless the name says otherwise. A layer a workload does not
// touch reports 0.
var perLayer = []metricDef{
	{"e2e.run_s_p90", "s"},
	{"e2e.runs_per_s", "1/s"},
	{"core.self_s", "s"},
	{"core.scream_s", "s"},
	{"core.screams", "count"},
	{"core.ns_per_scream", "ns"},
	{"core.elections", "count"},
	{"core.steps", "count"},
	{"core.rounds", "count"},
	{"core.exec_sim_s", "s"},
	{"phys.handshake_s", "s"},
	{"phys.handshakes", "count"},
	{"phys.handshake_links", "count"},
	{"phys.handshake_ok_ratio", "ratio"},
	{"phys.spatial_build_s", "s"},
	{"sched.new_s", "s"},
	{"sched.build_s", "s"},
	{"sched.builds", "count"},
	{"sched.build_us_p50", "us"},
	{"sched.build_us_p90", "us"},
	{"sched.slots", "count"},
	{"sched.placements", "count"},
	{"sched.fill", "ratio"},
	{"sched.ns_per_placement", "ns"},
	{"setup.mesh_s", "s"},
	{"setup.frame_time_s", "s"},
	{"flow.run_s", "s"},
	{"flow.self_s", "s"},
	{"flow.epochs", "count"},
	{"flow.offered", "count"},
	{"flow.delivered", "count"},
	{"flow.transmissions", "count"},
	{"flow.delivered_per_tx", "ratio"},
	{"flow.self_ns_per_tx", "ns"},
	{"dynam.moves", "count"},
	{"dynam.fails", "count"},
	{"dynam.repairs", "count"},
	{"dynam.rebuilds", "count"},
	{"dynam.world_build_s", "s"},
	{"serve.inproc_s_p50", "s"},
	{"serve.overhead_s", "s"},
	{"serve.parse_s", "s"},
	{"serve.write_s", "s"},
	{"serve.writes", "count"},
	{"serve.bytes", "B"},
	{"serve.events", "count"},
	{"exp.fig6_s", "s"},
	{"exp.fig7_s", "s"},
	{"exp.fig8_s", "s"},
	{"exp.fig9_s", "s"},
	{"exp.figflowload_s", "s"},
	{"exp.figchurn_s", "s"},
	{"exp.figchannels_s", "s"},
	{"exp.figsched_s", "s"},
	{"runtime.gc_per_run", "count"},
	{"runtime.gc_pause_s_per_run", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_s", "s"},
}

// countMetrics sets the per-layer counts of a traced pass from the counters
// its units published into one registry, per unit.
func countMetrics(r *report, reg *scream.ObsRegistry, units float64) {
	c := reg.TakeSnapshot().Counters
	per := func(name string) float64 { return ratio(float64(c[name]), units) }
	r.set("core.screams", per("scream_core_screams_measured_total"))
	r.set("core.elections", per("scream_core_elections_total"))
	r.set("core.steps", per("scream_core_steps_total"))
	r.set("core.rounds", per("scream_core_rounds_total"))
	r.set("core.exec_sim_s", per("scream_core_exec_ticks_total")/float64(des.Second))
	r.set("phys.handshakes", per("scream_core_handshake_slots_measured_total"))
	r.set("sched.builds", per("scream_sched_builds_total"))
	r.set("sched.slots", per("scream_sched_slots_total"))
	r.set("sched.placements", per("scream_sched_admissions_total"))
	r.set("sched.fill", ratio(per("scream_sched_admissions_total"), per("scream_sched_slots_total")))
	r.set("flow.epochs", per("scream_flow_epochs_total"))
	r.set("flow.offered", per("scream_flow_offered_total"))
	r.set("flow.delivered", per("scream_flow_delivered_total"))
	r.set("flow.transmissions", per("scream_flow_transmissions_total"))
	r.set("flow.delivered_per_tx", ratio(per("scream_flow_delivered_total"), per("scream_flow_transmissions_total")))
	r.set("dynam.moves", per("scream_dynam_move_events_total"))
	r.set("dynam.fails", per("scream_dynam_fail_events_total"))
	r.set("dynam.repairs", per("scream_dynam_repairs_total"))
	r.set("dynam.rebuilds", per("scream_dynam_rebuilds_total"))
}

// layerMetrics sets the per-layer metrics of a replica, per traced run:
// counts from its registry, times from its spans and the sampled leaf
// timings attached to them.
func layerMetrics(r *report, rep *replica) {
	n := float64(rep.runs)
	if n == 0 {
		return
	}
	countMetrics(r, rep.reg, n)
	lt := rep.rec.aggregate()
	per := func(x float64) float64 { return x / n }

	var leaf leafCounts
	for i := range rep.rec.spans {
		if l := rep.rec.spans[i].Leaf; l != nil {
			leaf.Screams += l.Screams
			leaf.ScreamNs += l.ScreamNs
			leaf.HandshakeNs += l.HandshakeNs
			leaf.Links += l.Links
			leaf.OK += l.OK
		}
	}
	r.set("core.self_s", per(lt.self["core.run"]))
	r.set("core.scream_s", per(float64(leaf.ScreamNs)/1e9))
	r.set("core.ns_per_scream", ratio(float64(leaf.ScreamNs), float64(leaf.Screams)))
	r.set("phys.handshake_s", per(float64(leaf.HandshakeNs)/1e9))
	r.set("phys.handshake_links", per(float64(leaf.Links)))
	r.set("phys.handshake_ok_ratio", ratio(float64(leaf.OK), float64(leaf.Links)))
	r.set("phys.spatial_build_s", per(lt.total["phys.spatial_build"]))

	builds := lt.durs["sched.build"]
	r.set("sched.new_s", per(lt.total["sched.new"]))
	r.set("sched.build_s", per(lt.self["sched.build"]))
	r.set("sched.build_us_p50", percentile(builds, 50)*1e6)
	r.set("sched.build_us_p90", percentile(builds, 90)*1e6)
	r.set("sched.ns_per_placement", ratio(per(lt.self["sched.build"])*1e9, r.values["sched.placements"]))

	r.set("setup.mesh_s", per(lt.total["setup.mesh"]))
	r.set("setup.frame_time_s", per(lt.total["setup.frame_time"]))
	r.set("flow.run_s", per(lt.total["flow.run"]))
	r.set("flow.self_s", per(lt.self["flow.run"]))
	r.set("flow.self_ns_per_tx", ratio(per(lt.self["flow.run"])*1e9, r.values["flow.transmissions"]))
	r.set("dynam.world_build_s", per(lt.total["dynam.world_build"]))

	r.set("trace.unattributed_s", per(lt.self["run"]))
}
