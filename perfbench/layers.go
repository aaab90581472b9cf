package main

// layerMetric is one per-layer metric of the traced run. untraced ones
// are user-facing figures of the feedback loop taken from the untraced
// pass; every other one comes from the traced pass. A metric that does
// not apply to a workload reads 0 there.
type layerMetric struct {
	name, unit string
	untraced   bool
}

var perLayer = []layerMetric{
	{"paris.link_s", "s", false},
	{"core.new_s", "s", false},
	{"feature.space_filtered", "count", false},
	{"feature.space_total", "count", false},
	{"store.build_s", "s", false},
	{"store.checkpoint_ms", "ms", false},
	{"store.compactions", "count", false},
	{"store.scans_per_query", "count", false},
	{"store.countmatch_per_query", "count", false},
	{"store.triples_per_query", "count", false},
	{"store.triples_per_row", "count", false},
	{"store.scan_us_per_query", "us", false},
	{"sparql.parse_us", "us", false},
	{"federation.plan_cache_hit_ratio", "ratio", false},
	{"federation.plan_cache_evictions", "count", false},
	{"federation.eval_us", "us", false},
	{"federation.rows_per_query", "count", false},
	{"federation.links_per_row", "count", false},
	{"federation.with_links_ms", "ms", false},
	{"server.query_self_us", "us", false},
	{"server.feedback_self_us", "us", false},
	{"server.checkpoint_ms", "ms", false},
	{"server.checkpoints", "count", false},
	{"wal.append_us", "us", false},
	{"wal.fsyncs_per_feedback", "count", false},
	{"wal.bytes_per_feedback", "bytes", false},
	{"core.feedback_us_per_link", "us", false},
	{"core.finish_episode_ms", "ms", false},
	{"core.candidates_ms", "ms", false},
	{"core.save_ms", "ms", false},
	{"core.explored_per_episode", "count", false},
	{"core.removed_per_episode", "count", false},
	{"core.candidate_links", "count", false},
	{"fleet.shards_per_query", "count", false},
	{"fleet.route_self_us", "us", false},
	{"fleet.txn_frac", "ratio", false},
	{"fleet.hedges_per_query", "count", false},
	{"runtime.gc_cpu_frac", "ratio", false},
	{"runtime.gc_cycles_per_kquery", "count", false},
	{"client.late_p99_ms", "ms", false},
	// Tail latency and learned quality, from the untraced pass. On a
	// two-vCPU guest with bursty CPU steal a p99 swings several-fold
	// from run to run, and F1 differs from world to world, so neither
	// can be a bounded end-to-end metric.
	{"client.query_p99_ms", "ms", true},
	{"loop.link_f1", "ratio", true},
	// The feedback loop's user-facing figures. They exist only where
	// feedback flows, so they cannot be end-to-end metrics that every
	// workload reports; they come from the untraced pass.
	{"loop.feedback_ack_p50_ms", "ms", true},
	{"loop.feedback_ack_p99_ms", "ms", true},
	{"loop.publish_p50_ms", "ms", true},
	{"loop.publish_p90_ms", "ms", true},
	{"loop.feedback_links_per_s", "1/s", true},
	{"loop.episodes", "count", true},
}

// restartLayers are reported only by the restart workload, the only
// one that crashes and reopens its server.
var restartLayers = []layerMetric{
	{"store.open_s", "s", false},
	{"restart.core_new_s", "s", false},
	{"server.recover_s", "s", false},
	{"server.replayed_records", "count", false},
	{"loop.restart_s", "s", true},
}

// layerSnapshot is the tracer's counters at one instant, so a measured
// window's share can be taken as a difference.
type layerSnapshot struct {
	scans, countMatches, triples, scanNs int64
	feedbackLinks, feedbackNs            int64
	episodes, explored, removed          int64
	syncs, writeBytes                    int64
}

func (t *tracer) snapshot() layerSnapshot {
	if t == nil {
		return layerSnapshot{}
	}
	return layerSnapshot{
		scans: t.scans.Load(), countMatches: t.countMatches.Load(), triples: t.triples.Load(), scanNs: t.scanNs.Load(),
		feedbackLinks: t.feedbackLinks.Load(), feedbackNs: t.feedbackNs.Load(),
		episodes: t.episodes.Load(), explored: t.explored.Load(), removed: t.removed.Load(),
		syncs: t.syncs.Load(), writeBytes: t.writeBytes.Load(),
	}
}

func (a layerSnapshot) sub(b layerSnapshot) layerSnapshot {
	return layerSnapshot{
		scans: a.scans - b.scans, countMatches: a.countMatches - b.countMatches,
		triples: a.triples - b.triples, scanNs: a.scanNs - b.scanNs,
		feedbackLinks: a.feedbackLinks - b.feedbackLinks, feedbackNs: a.feedbackNs - b.feedbackNs,
		episodes: a.episodes - b.episodes, explored: a.explored - b.explored, removed: a.removed - b.removed,
		syncs: a.syncs - b.syncs, writeBytes: a.writeBytes - b.writeBytes,
	}
}

// setLayers records the layer figures every workload shares: set-up
// split, store scans and runtime over the measured window.
func setLayers(o *outcome, st setupTimes, d layerSnapshot, win window, queries, rows float64) {
	o.layer["paris.link_s"] = st.paris.Seconds()
	o.layer["core.new_s"] = st.coreNew.Seconds()
	o.layer["store.build_s"] = st.storeBuild.Seconds()
	o.layer["store.scans_per_query"] = safeDiv(float64(d.scans), queries)
	o.layer["store.countmatch_per_query"] = safeDiv(float64(d.countMatches), queries)
	o.layer["store.triples_per_query"] = safeDiv(float64(d.triples), queries)
	o.layer["store.triples_per_row"] = safeDiv(float64(d.triples), rows)
	o.layer["store.scan_us_per_query"] = safeDiv(float64(d.scanNs)/1e3, queries)
	o.layer["runtime.gc_cpu_frac"] = win.gcFrac
	o.layer["runtime.gc_cycles_per_kquery"] = safeDiv(float64(win.gcs)*1000, queries)
	if d.feedbackLinks > 0 {
		o.layer["core.feedback_us_per_link"] = float64(d.feedbackNs) / 1e3 / float64(d.feedbackLinks)
	}
	if d.episodes > 0 {
		o.layer["core.explored_per_episode"] = float64(d.explored) / float64(d.episodes)
		o.layer["core.removed_per_episode"] = float64(d.removed) / float64(d.episodes)
	}
}
