package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// probeID numbers the traced run's probe ops after the loop's.
const probeID = 1 << 40

// layerMetrics runs the traced run's probes after its op loop and fills the
// per-layer metrics. It returns every op of the run, probes included.
func layerMetrics(e *env, fx *fixture, loop []opRecord, m map[string]metric) ([]opRecord, error) {
	loopSpans := e.tr.spanCount()
	var tracedOps int
	var tracedJobs, untracedJobs []time.Duration
	for _, r := range loop {
		if r.traced {
			tracedOps++
		}
		if !r.op.cli && r.err == nil {
			if r.traced {
				tracedJobs = append(tracedJobs, r.lat)
			} else {
				untracedJobs = append(untracedJobs, r.lat)
			}
		}
	}
	tracedMS, untracedMS := median(sortedMS(tracedJobs)), median(sortedMS(untracedJobs))

	// front holds the ops served by fx, whose servers scrapeDiffs reads.
	front := append(loop, probeService(e, fx, probeID)...)
	nodes, err := scrapeDiffs(fx)
	if err != nil {
		return nil, err
	}
	total, frontDiff := sumDiffs(nodes), nodes[len(nodes)-1]
	// No workload runs a cluster of its own: the probe cluster's one count
	// job is what the coordinator splits into shards.
	rec, shards, err := probeCluster(e, fx, probeID+100)
	if err != nil {
		return nil, err
	}
	all := append(front, rec)
	lc, errs := probeLayers(e, fx, probeID+200)
	for _, err := range errs {
		all = append(all, opRecord{err: err}) // one op per graph probed
	}

	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Layers below the service, called in process.
	put("graph.load_ms", e.tr.totalMS("graph.load"), "ms")
	put("reduce.apply_ms", e.tr.totalMS("reduce.apply"), "ms")
	put("reduce.residual_vertices", float64(lc.residual), "count")
	put("order.degeneracy_ms", e.tr.totalMS("order.degeneracy"), "ms")
	put("truss.decompose_ms", e.tr.totalMS("truss.decompose"), "ms")
	put("truss.triangles", float64(lc.triangles), "count")
	for _, c := range []string{"session_hbbmc", "session_bkref", "count_hbbmc", "count_bkref", "count_w1", "enumerate"} {
		put("core."+c+"_ms", e.tr.totalMS("core."+c), "ms")
	}
	put("core.calls", float64(lc.calls), "count")
	put("core.vertex_calls", float64(lc.vertexCalls), "count")
	put("core.top_branches", float64(lc.branches), "count")
	put("core.plex_branches", float64(lc.plexBranches), "count")
	put("core.cliques", float64(lc.cliques), "count")
	put("core.et_cliques", float64(lc.etCliques), "count")
	put("core.et_ratio", ratio(float64(lc.etCliques), float64(lc.cliques)), "ratio")

	// Service: client-side timings of the ops, and the servers' counters.
	jobs := func(r opRecord) bool { return !r.op.cli && r.err == nil }
	streams := func(r opRecord) bool { return jobs(r) && r.op.typ == "enumerate" }
	put("service.submit_ms", median(sortedMS(collect(front, jobs, func(r opRecord) time.Duration { return r.submit }))), "ms")
	for _, typ := range smallTypes {
		put("service.type_p50_ms."+typ, median(sortedMS(latencies(front, func(r opRecord) bool { return jobs(r) && r.op.typ == typ }))), "ms")
	}
	put("service.first_clique_ms", median(sortedMS(collect(front, streams, func(r opRecord) time.Duration { return r.first }))), "ms")
	var streamJobs, streamBytes, streamCliques float64
	var streamTime time.Duration
	for _, r := range front {
		if streams(r) {
			streamJobs++
			streamBytes += float64(r.bytes)
			streamCliques += float64(r.cliques)
			streamTime += r.lat
		}
	}
	put("service.stream_bytes_per_clique", ratio(streamBytes, streamCliques), "B")
	put("service.stream_mb_per_s", ratio(streamBytes/1e6, streamTime.Seconds()), "MB/s")
	stalls, stallMS := total.hist("mced_stream_stall_seconds")
	put("service.stream_stalls", stalls, "count")
	put("service.stream_stall_s", ratio(stallMS/1e3, streamJobs), "s")
	hits, misses := total["mced_session_cache_hits"], total["mced_session_cache_misses"]
	put("service.session_hits", hits, "count")
	put("service.session_misses", misses, "count")
	put("service.session_hit_ratio", ratio(hits, hits+misses), "ratio")
	builds, _ := total.hist("mced_session_build_seconds")
	put("service.session_builds", builds, "count")
	put("service.session_build_ms", total.meanMS("mced_session_build_seconds"), "ms")
	put("service.queue_wait_ms", total.meanMS("mced_queue_wait_seconds"), "ms")
	put("service.server_job_ms", frontDiff.meanMS("mced_job_duration_seconds"), "ms")
	put("service.client_job_ms", mean(latencies(front, jobs)), "ms")

	// Journal, scraped.
	fsyncs, _ := total.hist("mced_journal_fsync_seconds")
	put("journal.fsyncs", fsyncs, "count")
	put("journal.fsync_ms", total.meanMS("mced_journal_fsync_seconds"), "ms")
	put("journal.fsyncs_per_job", ratio(fsyncs, total["mced_jobs_done"]), "ratio")

	// Distribution: the probe cluster's one job, so the counts do not depend
	// on how many jobs a run fits.
	put("distrib.shards_dispatched", shards["mced_shards_dispatched"], "count")
	put("distrib.shard_attempts", shards["mced_shards_dispatched"]+shards["mced_shards_retried"], "count")
	put("distrib.shard_rtt_ms", shards.meanMS("mced_shard_rtt_seconds"), "ms")

	// The CLI: the same query with and without clique output.
	cli := func(typ string) func(opRecord) bool {
		return func(r opRecord) bool {
			return r.op.cli && r.err == nil && r.op.ds == 0 && r.op.workers == 2 && r.op.typ == typ
		}
	}
	quiet := median(sortedMS(latencies(front, cli("count")))) / 1e3
	withOut := median(sortedMS(latencies(front, cli("enumerate")))) / 1e3
	put("mce.quiet_s", quiet, "s")
	put("mce.encode_s", withOut-quiet, "s")
	var outBytes []float64
	for _, r := range front {
		if cli("enumerate")(r) {
			outBytes = append(outBytes, float64(r.bytes))
		}
	}
	sort.Float64s(outBytes)
	put("mce.output_bytes", median(outBytes), "B")

	// Self time per layer, and what tracing itself costs.
	self := e.tr.selfTimes()
	for _, layer := range []string{"bench", "graph", "reduce", "order", "truss", "core", "service", "distrib", "mce"} {
		put("self_ms."+layer, self[layer], "ms")
	}
	put("trace.spans_per_op", ratio(float64(loopSpans), float64(tracedOps)), "count")
	put("trace.job_p50_ms", tracedMS, "ms")
	put("trace.untraced_job_p50_ms", untracedMS, "ms")
	put("trace.overhead_pct", 100*(ratio(tracedMS, untracedMS)-1), "%")
	for name, v := range m {
		if v.Value == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s is 0 on this run\n", name)
		}
	}
	return all, nil
}

func collect(recs []opRecord, keep func(opRecord) bool, val func(opRecord) time.Duration) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if keep(r) {
			out = append(out, val(r))
		}
	}
	return out
}

func latencies(recs []opRecord, keep func(opRecord) bool) []time.Duration {
	return collect(recs, keep, func(r opRecord) time.Duration { return r.lat })
}

// mean of durations in milliseconds.
func mean(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return ratio(float64(s.Nanoseconds())/1e6, float64(len(ds)))
}
