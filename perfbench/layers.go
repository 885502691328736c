package main

import (
	"os"
	"time"

	"github.com/tmerge/tmerge/internal/reid"
)

// perLayer lists the metrics every traced run prints, with units.
// Counts and times are per unit of work (a pass, a fleet step or a
// history session); a layer a workload does not exercise reads 0.
var perLayer = map[string]string{
	"track.frames":  "count",
	"track.busy_ms": "ms",

	"core.select_calls":     "count",
	"core.select_busy_ms":   "ms",
	"core.pairs":            "count",
	"core.selected":         "count",
	"core.pipeline_self_ms": "ms",

	"reid.distances":       "count",
	"reid.extractions":     "count",
	"reid.cache_hits":      "count",
	"reid.cache_hit_ratio": "ratio",

	"device.submissions": "count",
	"device.busy_ms":     "ms",
	"device.virtual_ms":  "ms",

	"checkpoint.count":     "count",
	"checkpoint.bytes":     "bytes",
	"checkpoint.bytes_max": "bytes",
	"checkpoint.seal_ms":   "ms",

	"serve.turn_ms_p50":        "ms",
	"serve.turn_ms_p99":        "ms",
	"serve.queue_wait_ms_p50":  "ms",
	"serve.queue_wait_ms_p99":  "ms",
	"serve.backlog_frames_max": "frames",
	"ingress.requests":         "count",
	"ingress.retries":          "count",
	"ingress.throttled":        "count",
	"ingress.push_ms_p50":      "ms",
	"ingress.push_ms_p99":      "ms",
	"loadgen.lag_ms_p99":       "ms",
	"ingest.windows":           "count",
	"ingest.push_busy_ms":      "ms",
	"histlog.asof_calls":       "count",
	"histlog.asof_busy_ms":     "ms",
	"histlog.log_bytes":        "bytes",
	"trackdb.hot_tracks":       "count",
	"trackdb.cold_tracks":      "count",
	"trackdb.hot_cells":        "count",
	"trackdb.evicted":          "count",
	"trackdb.rehydrated":       "count",
	"query.count.apply_ms":     "ms",
	"query.count.scanned":      "count",
	"query.region.apply_ms":    "ms",
	"query.region.scanned":     "count",
	"query.cooccur.apply_ms":   "ms",
	"query.cooccur.scanned":    "count",
	"query.precedes.apply_ms":  "ms",
	"query.precedes.scanned":   "count",
	"query.asserts":            "count",
	"query.retracts":           "count",
	"query.bootstrap_ms":       "ms",
	"query.answer_ms":          "ms",
	"go.alloc_bytes_per_frame": "bytes",
	"go.gc_cycles":             "count",
	"trace.untraced_ms":        "ms",
	"trace.traced_ms":          "ms",
	"trace.overhead_pct":       "%",
	"trace.spans":              "count",
	"trace.self_total_ms":      "ms",
	"bench.self_ms":            "ms",
	"track.self_ms":            "ms",
	"core.self_ms":             "ms",
	"device.self_ms":           "ms",
	"checkpoint.self_ms":       "ms",
	"serve.self_ms":            "ms",
	"ingest.self_ms":           "ms",
	"histlog.self_ms":          "ms",
	"query.self_ms":            "ms",
	"ingress.self_ms":          "ms",
}

// tracedLayers are the layers whose self time the table reports.
var tracedLayers = []string{"bench", "track", "core", "device", "checkpoint", "serve", "ingest", "histlog", "query", "ingress"}

// setSpanMetrics reports the span-derived per-layer metrics of one
// traced phase, per unit of work.
func setSpanMetrics(rep *report, spans []span, units int) {
	lt := tabulate(spans)
	per := func(d time.Duration) float64 { return ms(d) / float64(units) }
	rep.set("track.busy_ms", per(lt.busy["track.track"]), "ms")
	rep.set("core.select_busy_ms", per(lt.busy["core.select"]), "ms")
	rep.set("core.pipeline_self_ms", per(lt.selfByName["core.pipeline"]), "ms")
	rep.set("checkpoint.seal_ms", per(lt.busy["checkpoint.seal"]), "ms")
	rep.set("ingest.push_busy_ms", per(lt.busy["ingest.push"]), "ms")
	rep.set("histlog.asof_busy_ms", per(lt.busy["histlog.asof"]), "ms")
	rep.set("query.answer_ms", per(lt.busy["query.answer"]), "ms")
	var boot time.Duration
	for _, k := range opKinds {
		rep.set("query."+k+".apply_ms", per(lt.busy["query."+k+".apply"]), "ms")
		boot += lt.busy["query."+k+".bootstrap"]
	}
	rep.set("query.bootstrap_ms", per(boot), "ms")
	for _, l := range tracedLayers {
		rep.set(l+".self_ms", per(lt.self[l]), "ms")
	}
	rep.set("trace.self_total_ms", per(lt.total), "ms")
	rep.set("trace.spans", float64(len(spans))/float64(units), "count")
	lt.print(os.Stderr, "traced phase")
	rep.notes["layer_self_share"] = lt.shares()
}

// setOverhead reports the traced and untraced figure of the workload's
// main wall metric and the tracing overhead between them.
func setOverhead(rep *report, untraced, traced float64) {
	rep.set("trace.untraced_ms", untraced, "ms")
	rep.set("trace.traced_ms", traced, "ms")
	pct := 0.0
	if untraced > 0 {
		pct = 100 * (traced - untraced) / untraced
	}
	rep.set("trace.overhead_pct", pct, "%")
}

// setOracleMetrics reports the reid layer's work per unit.
func setOracleMetrics(rep *report, st reid.Stats, units float64) {
	rep.set("reid.distances", float64(st.Distances)/units, "count")
	rep.set("reid.extractions", float64(st.Extractions)/units, "count")
	rep.set("reid.cache_hits", float64(st.CacheHits)/units, "count")
	ratio := 0.0
	if n := st.CacheHits + st.Extractions; n > 0 {
		ratio = float64(st.CacheHits) / float64(n)
	}
	rep.set("reid.cache_hit_ratio", ratio, "ratio")
}

// setCounterMetrics reports the wrapper-recorded work counts per unit.
func setCounterMetrics(rep *report, c *counters, units float64) {
	rep.set("core.select_calls", float64(c.selectCalls.Load())/units, "count")
	rep.set("core.pairs", float64(c.pairs.Load())/units, "count")
	rep.set("core.selected", float64(c.selected.Load())/units, "count")
	rep.set("device.submissions", float64(c.submissions.Load())/units, "count")
	rep.set("device.busy_ms", ms(time.Duration(c.deviceBusyNS.Load()))/units, "ms")
}
