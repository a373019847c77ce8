package main

import (
	"sort"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Each workload reports all of them; a layer that does no work in a
// workload reads 0 there. BENCHMARK.json lists the same names.
var perLayer = []struct{ Name, Unit string }{
	{"pipeline.pack_efficiency", "ratio"},
	{"explain.search_ms", "ms"},
	{"summarize.search_ms", "ms"},
	{"detector.score_ms", "ms"},
	{"detector.compute_ms", "ms"},
	{"detector.memo_hit_ratio", "ratio"},
	{"neighbors.plane_hit_ratio", "ratio"},
	{"neighbors.plane_computations", "count"},
	{"neighbors.delta_ms", "ms"},
	{"neighbors.delta_views", "count"},
	{"neighbors.delta_sweep_ms", "ms"},
	{"neighbors.delta_sweep_views", "count"},
	{"neighbors.delta_seeded_ms", "ms"},
	{"neighbors.delta_seeded_views", "count"},
	{"neighbors.kdtree_ms", "ms"},
	{"neighbors.kdtree_views", "count"},
	{"neighbors.landmark_ms", "ms"},
	{"neighbors.landmark_views", "count"},
	{"neighbors.brute_ms", "ms"},
	{"neighbors.brute_views", "count"},
	{"neighbors.prune_scan_fraction", "ratio"},
	{"neighbors.prune_survivor_fraction", "ratio"},
	{"neighbors.window_apply_ms", "ms"},
	{"neighbors.window_repair_fraction", "ratio"},
	{"stream.push_ms", "ms"},
	{"stream.rescore_flag_ms", "ms"},
	{"stream.dirty_rescore_fraction", "ratio"},
	{"server.handler_ms", "ms"},
	{"server.engine_ms", "ms"},
	{"server.codec_ms", "ms"},
	{"server.rejected", "count"},
	{"client.transport_ms", "ms"},
	{"dataset.register_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// idleLayers fills in every per-layer metric the workload did not set
// with 0: the layer did no work in it.
func idleLayers(m map[string]metric) {
	for _, l := range perLayer {
		if _, ok := m[l.Name]; !ok {
			m[l.Name] = metric{0, l.Unit}
		}
	}
}

// traceOverhead is untraced throughput over traced throughput: 1 means
// tracing cost nothing.
func traceOverhead(untraced, traced loopResult) float64 {
	return untraced.throughput() / traced.throughput()
}

// mergeLoops adds b's ops, failures and samples to a (the counts a traced
// run reports cover both of its phases).
func mergeLoops(a, b loopResult) loopResult {
	a.Ops += b.Ops
	a.Failed += b.Failed
	a.Samples = append(a.Samples, b.Samples...)
	return a
}

func sortedKeys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
