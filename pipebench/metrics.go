package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. For a layer metric, moves lists
// the end-to-end metrics it should move and on says on which workload it
// does most work, and on which little.
type metricDef struct {
	name, unit, better string
	moves              []string
	on                 string
}

// endToEnd are the metrics an untraced run reports; each is present and
// non-zero on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "round_s", unit: "s", better: "lower"},
	{name: "device_report_ns", unit: "ns", better: "lower"},
	{name: "ingest_reports_per_s", unit: "1/s", better: "higher"},
	{name: "ack_p50_ms", unit: "ms", better: "lower"},
	{name: "ack_p99_ms", unit: "ms", better: "lower"},
	{name: "identify_ms", unit: "ms", better: "lower"},
	{name: "sketch_mb", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "recall", unit: "frac", better: "higher"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricDef{
	{"device.self_ns_per_report", "ns", "lower", []string{"device_report_ns", "round_s", "peak_rss_mb"}, "pes_round / stream_query"},
	{"device.allocs_per_report", "count", "lower", []string{"device_report_ns", "round_s", "peak_rss_mb"}, "pes_round / stream_query"},
	{"absorb.ns_per_report", "ns", "lower", []string{"ingest_reports_per_s", "ack_p50_ms"}, "pes_round (sketch out of cache) / stream_query (in cache)"},
	{"absorb.reports_per_s_single", "1/s", "higher", []string{"ingest_reports_per_s", "ack_p50_ms"}, "pes_round (sketch out of cache) / stream_query (in cache)"},
	{"protocol.ack_busy_s", "s", "lower", []string{"ingest_reports_per_s", "ack_p50_ms"}, "stream_query / pes_round"},
	{"protocol.wire_ns_per_report", "ns", "lower", []string{"ingest_reports_per_s", "ack_p50_ms"}, "stream_query / pes_round"},
	{"protocol.batches", "count", "higher", []string{"ingest_reports_per_s"}, "stream_query / pes_round"},
	{"protocol.absorb_errors", "count", "lower", []string{"ingest_reports_per_s"}, "stream_query / pes_round"},
	{"protocol.identify_reply_ms", "ms", "lower", []string{"identify_ms"}, "stream_query / pes_round"},
	{"checkpoint.count", "count", "lower", []string{"ack_p99_ms", "ingest_reports_per_s"}, "pes_round / stream_query"},
	{"checkpoint.bytes", "B", "lower", []string{"ack_p99_ms", "ingest_reports_per_s"}, "pes_round / stream_query"},
	{"checkpoint.snapshot_ms", "ms", "lower", []string{"ack_p99_ms", "ingest_reports_per_s"}, "pes_round / stream_query"},
	{"checkpoint.save_ms", "ms", "lower", []string{"ack_p99_ms", "ingest_reports_per_s"}, "pes_round / stream_query"},
	{"checkpoint.write_amplification", "x", "lower", []string{"ack_p99_ms", "ingest_reports_per_s"}, "pes_round / stream_query"},
	{"checkpoint.errors", "count", "lower", []string{"ack_p99_ms"}, "pes_round / stream_query"},
	{"identify.server_ms", "ms", "lower", []string{"identify_ms", "round_s"}, "pes_round / stream_query"},
	{"identify.inproc_ms", "ms", "lower", []string{"identify_ms", "round_s"}, "pes_round / stream_query"},
	{"identify.answer_size", "count", "higher", []string{"recall"}, "pes_round / stream_query"},
	{"query.count", "count", "higher", []string{"query_p50_ms", "query_p99_ms"}, "stream_query / absent on pes_round"},
	{"query.errors", "count", "lower", []string{"query_p50_ms", "query_p99_ms"}, "stream_query / absent on pes_round"},
	{"query.busy_s", "s", "lower", []string{"query_p50_ms", "query_p99_ms", "ack_p99_ms"}, "stream_query / absent on pes_round"},
	{"query.p50_ms", "ms", "lower", []string{"query_p50_ms"}, "stream_query / absent on pes_round"},
	{"query.p99_ms", "ms", "lower", []string{"query_p99_ms"}, "stream_query / absent on pes_round"},
	{"stream.evictions", "count", "lower", []string{"query_p99_ms", "recall"}, "stream_query / absent on pes_round"},
	{"trace.unattributed_frac", "frac", "lower", nil, "all"},
	{"trace.overhead_frac", "frac", "lower", nil, "all"},
}

// reported is one metric value with how it was obtained.
type reported struct {
	value float64
	note  string
}

// endToEndValues derives the end-to-end metrics from the untraced rounds
// and every set-up of the run. The query latencies and failed_frac are
// returned too; they are printed but not part of the result object,
// because they are absent or zero on some workloads.
func endToEndValues(rounds []*roundResult, setups []time.Duration, c checks, n int) map[string]reported {
	var roundS, devNs, ingest, ident, recall, setupS []float64
	var acks, queries []time.Duration
	sketch := 0
	for _, r := range rounds {
		roundS = append(roundS, r.round.Seconds())
		devNs = append(devNs, r.chunkNs...)
		ingest = append(ingest, float64(n)/r.ingest.Seconds())
		ident = append(ident, ms(r.identify))
		acks = append(acks, r.acks...)
		queries = append(queries, r.queries...)
		recall = append(recall, r.recall)
		sketch = r.sketchBytes
	}
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	out := map[string]reported{
		"setup_s":              {median(setupS), fmt.Sprintf("median of %d set-ups", len(setupS))},
		"round_s":              {median(roundS), fmt.Sprintf("median of %d rounds", len(roundS))},
		"device_report_ns":     {median(devNs), fmt.Sprintf("median of %d %d-report chunks, wall per report on one goroutine", len(devNs), batchReports)},
		"ingest_reports_per_s": {median(ingest), fmt.Sprintf("median of %d rounds", len(ingest))},
		"ack_p50_ms":           {quantileMS(acks, 0.50), fmt.Sprintf("of %d acks", len(acks))},
		"ack_p99_ms":           {quantileMS(acks, 0.99), fmt.Sprintf("of %d acks", len(acks))},
		"identify_ms":          {median(ident), fmt.Sprintf("median of %d rounds", len(ident))},
		"sketch_mb":            {float64(sketch) / 1e6, "SketchBytes"},
		"peak_rss_mb":          {peakRSSMB(), "getrusage max RSS of the process"},
		"recall":               {mean(recall), fmt.Sprintf("mean of %d rounds", len(recall))},
		"failed_frac":          {float64(c.failed) / float64(max(c.attempted, 1)), fmt.Sprintf("of %d checked operations", c.attempted)},
	}
	if len(queries) > 0 {
		out["query_p50_ms"] = reported{quantileMS(queries, 0.50), fmt.Sprintf("of %d queries", len(queries))}
		out["query_p99_ms"] = reported{quantileMS(queries, 0.99), fmt.Sprintf("of %d queries", len(queries))}
	}
	return out
}

// layerValues derives the per-layer metrics from the traced rounds, each
// the median over those rounds. The overhead compares traced and untraced
// round_s medians of the same run.
func layerValues(traced, untraced []*roundResult, n, frameLen int) map[string]reported {
	vals := make(map[string][]float64)
	put := func(name string, v float64) { vals[name] = append(vals[name], v) }
	fn := float64(n)
	for _, r := range traced {
		sc := r.scrape
		ckpts := sc["ldphh_checkpoints_total"]
		var snaps, saves []float64
		for i := range r.replay.snapshots {
			snaps = append(snaps, ms(r.replay.snapshots[i]))
		}
		for i := range r.replay.saves {
			saves = append(saves, ms(r.replay.saves[i]))
		}
		snapMS, saveMS := median(snaps), median(saves)
		ckptNs := ckpts * (snapMS + saveMS) * 1e6
		put("device.self_ns_per_report", float64(r.deviceSelf.Nanoseconds())/fn)
		put("device.allocs_per_report", float64(r.mallocs)/fn)
		put("absorb.ns_per_report", float64(r.replay.absorb.Nanoseconds())/fn)
		put("absorb.reports_per_s_single", fn/r.replay.absorb.Seconds())
		put("protocol.ack_busy_s", r.ackBusy.Seconds())
		put("protocol.wire_ns_per_report", (float64(r.ackBusy.Nanoseconds()-r.replay.absorb.Nanoseconds())-ckptNs)/fn)
		put("protocol.batches", sc["ldphh_batches_absorbed_total"])
		put("protocol.absorb_errors", sc["ldphh_absorb_errors_total"])
		put("protocol.identify_reply_ms", ms(r.identify)-sc["ldphh_identify_seconds_total"]*1e3)
		put("checkpoint.count", ckpts)
		put("checkpoint.bytes", sc["ldphh_checkpoint_bytes"])
		put("checkpoint.snapshot_ms", snapMS)
		put("checkpoint.save_ms", saveMS)
		put("checkpoint.write_amplification", ckpts*sc["ldphh_checkpoint_bytes"]/(fn*float64(frameLen)))
		put("checkpoint.errors", sc["ldphh_checkpoint_errors_total"])
		put("identify.server_ms", sc["ldphh_identify_seconds_total"]*1e3)
		put("identify.inproc_ms", ms(r.replay.identify))
		put("identify.answer_size", float64(r.answerSize))
		put("query.count", sc["ldphh_topk_queries_total"])
		put("query.errors", sc["ldphh_topk_query_errors_total"])
		put("query.busy_s", r.queryBusy.Seconds())
		put("query.p50_ms", quantileMS(r.queries, 0.50))
		put("query.p99_ms", quantileMS(r.queries, 0.99))
		put("stream.evictions", sc["ldphh_stream_evictions_total"])
		put("trace.unattributed_frac", unattributed(r.spans, r.rootSpan))
	}
	out := make(map[string]reported, len(perLayer))
	for name, vs := range vals {
		out[name] = reported{median(vs), fmt.Sprintf("median of %d traced rounds", len(vs))}
	}
	for _, name := range []string{"protocol.ack_busy_s", "protocol.wire_ns_per_report", "query.busy_s"} {
		r := out[name]
		r.note += "; busy = union of the calls' intervals over both connections"
		out[name] = r
	}
	var tr, ut []float64
	for _, r := range traced {
		tr = append(tr, r.round.Seconds())
	}
	for _, r := range untraced {
		ut = append(ut, r.round.Seconds())
	}
	out["trace.overhead_frac"] = reported{median(tr)/median(ut) - 1,
		fmt.Sprintf("traced round_s %.4f s over untraced %.4f s", median(tr), median(ut))}
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle value (mean of the middle two), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantileMS returns the nearest-rank q-quantile in milliseconds, 0 for
// no samples.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return ms(s[max(k, 0)])
}

// peakRSSMB returns the process's peak resident set size in MB (10^6 B).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
