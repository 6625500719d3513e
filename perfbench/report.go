package main

import (
	"time"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/units"
)

// layerMetrics fills the per-layer metrics of a traced run; base is the
// untraced run of the same requests, for the tracing overhead.
func (p *phase) layerMetrics(base *phase, m map[string]metric) {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	done := p.completed()
	per := func(v float64) float64 { return ratio(v, float64(len(done))) }
	delta := func(name string) float64 { return p.m1[name] - p.m0[name] }

	// Span-based metrics average over the requests whose spans were
	// collected; counters over every completed request.
	self := make(map[string]float64) // µs
	var traced float64
	var submit, admission, queueWait, journal, replay []float64
	var statusBytes, evals, gens, hits, misses, warmHits, simS, simHostS float64
	for _, s := range done {
		statusBytes += float64(s.statusBytes)
		if p.w.daemon {
			submit = append(submit, ms(s.submit))
		}
		if s.traced {
			traced++
			for layer, us := range s.self {
				self[layer] += us
			}
		}
		for _, ph := range s.phases {
			d := float64(ph.DurUS) / 1e3
			switch ph.Name {
			case "admission":
				admission = append(admission, d)
			case "queue-wait":
				queueWait = append(queueWait, d)
			case "wal-journal":
				journal = append(journal, d)
			case "sim":
				replay = append(replay, d)
				simHostS += d / 1e3
			}
		}
		if s.reused {
			continue // counters of a cached result belong to its original
		}
		evals += float64(s.out.evals)
		gens += float64(s.out.generations)
		hits += float64(s.out.hits)
		misses += float64(s.out.misses)
		warmHits += float64(s.out.warms)
		if s.st.Verify != nil {
			simS += s.st.Verify.E2ELatencyS
		}
	}
	selfMS := func(layer string) float64 { return ratio(self[layer], traced) / 1e3 }
	// core, explore and intermittent self times carry the names below.
	for _, layer := range []string{"serve", "wal", "search", "sim"} {
		set(layer+".self_ms_per_design", selfMS(layer), "ms")
	}

	lost, opened, unencodable := p.sseCounts()
	set("serve.submit_ms_p50", quantile(submit, 0.5), "ms")
	set("serve.admission_ms_p50", quantile(admission, 0.5), "ms")
	set("serve.queue_wait_ms_p90", quantile(queueWait, 0.9), "ms")
	set("serve.done_status_bytes", per(statusBytes), "bytes")
	set("serve.result_cache_hit_ratio", ratio(delta("chrysalisd_cache_hits_total"),
		delta("chrysalisd_cache_hits_total")+delta("chrysalisd_cache_misses_total")), "ratio")
	set("serve.heap_per_job_kib", ratio(p.heapMiB*1024, p.jobRecords), "KiB")
	set("serve.sse_done_lost", float64(lost), "count")
	set("serve.sse_streams_opened", float64(opened), "count")
	set("serve.status_unencodable", float64(unencodable), "count")

	set("wal.journal_ms_p50", quantile(journal, 0.5), "ms")
	set("wal.fsync_ms_p90", 1e3*histQuantile(p.m0, p.m1, "chrysalisd_wal_fsync_seconds", 0.9), "ms")
	set("wal.appends_per_design", per(delta("chrysalisd_wal_appends_total")), "count")

	set("core.design_self_ms", selfMS("core"), "ms")

	set("search.evals_per_design", per(evals), "count")
	set("search.generations_per_design", per(gens), "count")
	set("search.generation_ms_p50", quantile(p.rec.gens, 0.5), "ms")

	set("explore.score_self_ms_per_design", selfMS("explore"), "ms")
	set("explore.ladder_sets_built_per_design", per(misses-warmHits), "count")
	set("explore.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("explore.warm_hit_ratio", ratio(warmHits, misses), "ratio")
	set("explore.warm_evictions", delta("chrysalisd_warm_cache_evictions_total"), "count")
	set("explore.warm_dedup", delta("chrysalisd_warm_cache_dedup_total"), "count")

	set("intermittent.ladder_build_self_ms_per_design", selfMS("intermittent"), "ms")
	set("intermittent.ladders_built_per_design", ratio(float64(p.rec.ladders), traced), "count")

	set("dataflow.evaluate_ns", p.evalNS, "ns")

	set("sim.replay_ms_p50", quantile(replay, 0.5), "ms")
	set("sim.sim_s_per_host_s", ratio(simS, simHostS), "s/s")

	set("runtime.gc_cpu_fraction", ratio(p.rt1.gcCPU-p.rt0.gcCPU, p.rt1.totalCPU-p.rt0.totalCPU), "ratio")
	set("runtime.alloc_mib_per_design", per(p.rt1.allocBytes-p.rt0.allocBytes)/(1<<20), "MiB")

	// The tail, from the untraced half; only serve-small has ten samples
	// beyond p99.
	set("e2e.latency_p99_ms", quantile(base.latencies(), 0.99), "ms")

	pct := func(traced, untraced float64) float64 { return 100 * ratio(traced-untraced, untraced) }
	set("trace.overhead_latency_p50_pct", pct(p.latencyQuantile(0.5), base.latencyQuantile(0.5)), "%")
	set("trace.overhead_cpu_pct", pct(ratio(ms(p.cpu), float64(len(done))),
		ratio(ms(base.cpu), float64(len(base.completed())))), "%")
	set("trace.dropped_events", float64(p.rec.dropped), "count")

	for k, v := range p.st.shares(len(p.samples)) {
		set(k, v, "ratio")
	}
}

// dataflowEvaluateNS times dataflow.Evaluate directly over every layer
// of the accel-cold networks, on a fixed grid of accelerator configs
// and mappings, and returns the median nanoseconds per call of five
// passes.
func dataflowEvaluateNS() float64 {
	type call struct {
		l  dnn.Layer
		eb int
		m  dataflow.Mapping
		hw dataflow.HW
	}
	var calls []call
	for _, name := range []string{"alexnet", "resnet18", "vgg16", "mobilenet-vww"} {
		wk, err := dnn.ByName(name)
		if err != nil {
			continue
		}
		for _, arch := range accel.Arches() {
			for _, npe := range []int{16, 64, 168} {
				for _, cache := range []units.Bytes{128, 512, 2048} {
					cfg := accel.Config{Arch: arch, NPE: npe, CacheBytes: cache}
					for _, df := range dataflow.Dataflows() {
						hw, err := cfg.HW(df)
						if err != nil {
							continue
						}
						for _, l := range wk.Layers {
							for _, part := range []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial} {
								for _, nt := range []int{1, 8} {
									calls = append(calls, call{l: l, eb: wk.ElemBytes, hw: hw,
										m: dataflow.Mapping{Dataflow: df, Partition: part, NTile: nt}})
								}
							}
						}
					}
				}
			}
		}
	}
	var passes []float64
	var sink float64
	for pass := 0; pass < 5; pass++ {
		t := time.Now()
		for _, c := range calls {
			if cost, err := dataflow.Evaluate(c.l, c.eb, c.m, c.hw); err == nil {
				sink += float64(cost.NTileEffective)
			}
		}
		passes = append(passes, float64(time.Since(t).Nanoseconds())/float64(len(calls)))
	}
	if sink < 0 {
		panic("unreachable: negative tile count")
	}
	return quantile(passes, 0.5)
}
