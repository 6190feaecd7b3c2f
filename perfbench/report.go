package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload with tracing off. Each
// is defined for all four workloads and is never zero on them; the
// workload-specific end-to-end figures are printed in the report and
// carried into the traced run's per-layer metrics (see README.md). The
// push tail is printed too but not gated: its p99 (and p90) moved by a
// fifth or more between runs on some workload, more than any bound. So
// is the achieved push rate: on the open-loop workloads it is the
// generator's target whenever checkGenerator passes the run, so it
// guards against a backlog rather than measuring the program.
var endToEndMetrics = []metricDef{
	{"qps", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"push_p50_us", "us"},
	{"refresh_cost_per_query", "cost"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// timedLayers are the per-layer timings; each is reported as .p50, .p99
// and .n.
var timedLayers = []metricDef{
	{"server.self_us", "us"},
	{"sql.parse_us", "us"},
	{"query.sync_us", "us"},
	{"query.scan_us", "us"},
	{"query.choose_us", "us"},
	{"query.refresh_us", "us"},
	{"refresh.wire_us", "us"},
	{"refresh.commit_us", "us"},
	{"query.fold_us", "us"},
	{"query.self_us", "us"},
	{"source.push_us", "us"},
	{"continuous.settle_ms", "ms"},
	{"partition.state_us", "us"},
	{"partition.inputs_us", "us"},
	{"partition.refresh_us", "us"},
	{"coordinator.self_us", "us"},
	{"partition.straggler_us", "us"},
	{"partition.codec_us", "us"},
	{"loadgen.late_us", "us"},
}

// scalarLayers are the per-layer counts and ratios.
var scalarLayers = []metricDef{
	{"server.bytes_per_query", "bytes"},
	{"query.plancache_hit_rate", "share"},
	{"query.rows_per_scan", "count"},
	{"refresh.tuples_per_query", "count"},
	{"refresh.paying_share", "share"},
	{"refresh.budget_width_ratio", "ratio"},
	{"netsim.query_msgs_per_query", "count"},
	{"netsim.value_msgs_per_push", "count"},
	{"wal.bytes_per_push", "bytes"},
	{"wal.checkpoints", "count"},
	{"wal.records_replayed", "count"},
	{"wal.recovery_s", "s"},
	{"relation.hot_shard_share", "share"},
	{"continuous.refreshed_per_tick", "count"},
	{"continuous.cost_per_tick", "cost"},
	{"continuous.notify_per_tick", "count"},
	{"continuous.sub_lag_p50_ms", "ms"},
	{"continuous.sub_lag_p90_ms", "ms"},
	{"partition.calls_per_query", "count"},
	{"partition.state_bytes", "bytes"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_share", "share"},
	{"trace.qps_untraced", "1/s"},
	{"trace.qps_traced", "1/s"},
	{"trace.overhead_share", "share"},
}

// perLayerMetrics expands the two per-layer tables into reported names.
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, m := range timedLayers {
		out = append(out, metricDef{m.name + ".p50", m.unit}, metricDef{m.name + ".p99", m.unit},
			metricDef{m.name + ".n", "count"})
	}
	return append(out, scalarLayers...)
}

// metric is one reported value with its sample count.
type metric struct {
	value float64
	n     int64
}

// report is a run's output.
type report struct {
	env        map[string]any
	attempted  int64
	failed     int64
	violations []string
	metrics    map[string]metric
	extra      []extraMetric
}

// extraMetric is a workload-specific end-to-end figure printed in the
// report but not part of the result line.
type extraMetric struct {
	name, unit string
	value      float64
	n          int64
}

func (r *report) correct() bool { return r.failed == 0 }

func (r *report) set(name string, v float64, n int64) { r.metrics[name] = metric{value: v, n: n} }

// write prints the report: the environment stamp, every metric with its
// unit and sample count, and last the one-line JSON result.
func (r *report) write(w io.Writer) error {
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	var defs []metricDef
	if _, ok := r.metrics["qps"]; ok {
		defs = endToEndMetrics
	} else {
		defs = perLayerMetrics()
	}
	for _, d := range defs {
		m := r.metrics[d.name]
		fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", d.name, m.value, d.unit, m.n)
	}
	for _, e := range r.extra {
		fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", e.name, e.value, e.unit, e.n)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6f %-6s n=%d\n", "failed_share", share, "share", r.attempted)

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), max(1, r.attempted), r.failed, map[string]jm{}}
	for _, d := range defs {
		v := r.metrics[d.name].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = jm{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// endToEnd computes the gated metrics from the untraced windows. Rates
// and medians are taken per window and reported as their median, so one
// disturbed window cannot move them. So is a 99th percentile when every
// window holds at least ten samples beyond it; otherwise it is taken
// over the pooled samples.
func endToEnd(wins []*window, setups []float64) map[string]metric {
	var qps []float64
	var qlat, plat [][]float64
	var queries, pushes int64
	var cost float64
	for _, w := range wins {
		if w.traced {
			continue
		}
		sec := w.elapsed.Seconds()
		qps = append(qps, float64(w.queries)/sec)
		qlat = append(qlat, w.qlat)
		plat = append(plat, w.plat)
		queries += w.queries
		pushes += w.pushes
		cost += w.cost
	}
	m := map[string]metric{}
	put := func(name string, v float64, n int64) { m[name] = metric{value: v, n: n} }
	put("qps", median(qps), queries)
	put("query_p50_us", windowQuantile(qlat, 0.50), queries)
	put("query_p99_us", windowQuantile(qlat, 0.99), queries)
	put("push_p50_us", windowQuantile(plat, 0.50), pushes)
	put("refresh_cost_per_query", cost/math.Max(1, float64(queries)), queries)
	put("setup_s", median(setups), int64(len(setups)))
	put("heap_mb", 0, 1)
	return m
}

// windowQuantile is the median over windows of each window's
// q-quantile, or the q-quantile of the pooled samples when some window
// has fewer than ten samples beyond it.
func windowQuantile(wins [][]float64, q float64) float64 {
	var per, pooled []float64
	for _, xs := range wins {
		if float64(len(xs))*(1-q) < 10 {
			for _, xs := range wins {
				pooled = append(pooled, xs...)
			}
			return quantile(pooled, q)
		}
		per = append(per, quantile(xs, q))
	}
	return median(per)
}

// extraEndToEnd are the end-to-end figures printed but not in the
// result line: the push rate and tail and the workload-specific figures.
func extraEndToEnd(wins []*window) []extraMetric {
	var pps, lag, ratio, late []float64
	var plat [][]float64
	var target float64
	var pushes int64
	for _, w := range wins {
		if w.traced {
			continue
		}
		pps = append(pps, float64(w.pushes)/w.elapsed.Seconds())
		plat = append(plat, w.plat)
		pushes += w.pushes
		lag = append(lag, w.lag...)
		ratio = append(ratio, w.budget...)
		late = append(late, w.late...)
		target = w.target
	}
	out := []extraMetric{{"pushes_per_s", "1/s", median(pps), pushes},
		{"push_p99_us", "us", windowQuantile(plat, 0.99), pushes}}
	if len(ratio) > 0 {
		out = append(out, extraMetric{"budget_width_ratio", "ratio", median(ratio), int64(len(ratio))})
	}
	if len(lag) > 0 {
		out = append(out, extraMetric{"sub_lag_p50_ms", "ms", quantile(lag, 0.5), int64(len(lag))},
			extraMetric{"sub_lag_p90_ms", "ms", quantile(lag, 0.9), int64(len(lag))})
	}
	if target > 0 {
		out = append(out, extraMetric{"push_target_per_s", "1/s", target, 1},
			extraMetric{"generator_late_p99_us", "us", quantile(late, 0.99), int64(len(late))})
	}
	return out
}

// perLayer computes the traced run's metrics: spans and counters from
// the traced windows, runtime costs and the tracing overhead from the
// untraced ones beside them.
func perLayer(h *harness, wins []*window) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, n int64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{value: v, n: n}
	}
	timing := func(name string, xs []float64) {
		set(name+".p50", quantile(xs, 0.5), int64(len(xs)))
		set(name+".p99", quantile(xs, 0.99), int64(len(xs)))
		set(name+".n", float64(len(xs)), int64(len(xs)))
	}
	mean := func(name string) {
		xs := h.rec.get(name)
		s := 0.0
		for _, x := range xs {
			s += x
		}
		set(name, s/math.Max(1, float64(len(xs))), int64(len(xs)))
	}

	var traced, untraced counters = counters{}, counters{}
	var settle, lag, late, ratio, qT, qU []float64
	var tq, tp, uq, up int64
	for _, w := range wins {
		late = append(late, w.late...)
		sum := untraced
		if w.traced {
			sum = traced
			settle = append(settle, w.settle...)
			lag = append(lag, w.lag...)
			ratio = append(ratio, w.budget...)
			qT = append(qT, float64(w.queries)/w.elapsed.Seconds())
			tq += w.queries
			tp += w.pushes
		} else {
			qU = append(qU, float64(w.queries)/w.elapsed.Seconds())
			uq += w.queries
			up += w.pushes
		}
		for k, v := range w.delta {
			sum[k] += v
		}
	}
	for _, d := range timedLayers {
		switch d.name {
		case "continuous.settle_ms":
			timing(d.name, settle)
		case "loadgen.late_us":
			timing(d.name, late)
		default:
			timing(d.name, h.rec.get(d.name))
		}
	}
	for _, name := range []string{"server.bytes_per_query", "query.rows_per_scan", "refresh.tuples_per_query",
		"refresh.paying_share", "wal.bytes_per_push", "partition.calls_per_query", "partition.state_bytes"} {
		mean(name)
	}
	set("refresh.budget_width_ratio", median(ratio), int64(len(ratio)))
	lookups := traced["plan_hits"] + traced["plan_misses"] + traced["plan_invalidations"]
	set("query.plancache_hit_rate", traced["plan_hits"]/lookups, int64(lookups))
	set("netsim.query_msgs_per_query", traced["query_msgs"]/float64(tq), tq)
	set("netsim.value_msgs_per_push", traced["value_msgs"]/float64(tp), tp)
	set("wal.checkpoints", traced["wal_gen"], 1)
	if shards := h.rec.get("relation.push_shard"); len(shards) > 0 {
		count := map[float64]int{}
		hot := 0
		for _, s := range shards {
			count[s]++
			hot = max(hot, count[s])
		}
		set("relation.hot_shard_share", float64(hot)/float64(len(shards)), int64(len(shards)))
	}
	if ticks := traced["ticks"]; ticks > 0 {
		set("continuous.refreshed_per_tick", traced["sub_refreshed"]/ticks, int64(ticks))
		set("continuous.cost_per_tick", traced["sub_cost"]/ticks, int64(ticks))
		set("continuous.notify_per_tick", traced["sub_notifications"]/ticks, int64(ticks))
	}
	if len(lag) > 0 {
		set("continuous.sub_lag_p50_ms", quantile(lag, 0.5), int64(len(lag)))
		set("continuous.sub_lag_p90_ms", quantile(lag, 0.9), int64(len(lag)))
	}
	ops := float64(uq + up)
	set("runtime.alloc_bytes_per_op", untraced["/gc/heap/allocs:bytes"]/ops, uq+up)
	set("runtime.gc_cpu_share", untraced["/cpu/classes/gc/total:cpu-seconds"]/untraced["/cpu/classes/total:cpu-seconds"], 1)
	set("trace.qps_untraced", median(qU), uq)
	set("trace.qps_traced", median(qT), tq)
	set("trace.overhead_share", 1-median(qT)/median(qU), tq)
	return m
}

// envStamp records what the numbers were measured on.
func envStamp(cfg config) map[string]any {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest(),
		"wal_sync":   "SyncGroup",
		"solver":     "greedy-density",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value
			}
		}
	}
	return env
}

// sourceDigest identifies the code measured when the checkout carries
// no git metadata: a SHA-256 over every Go source and go.mod under the
// working directory, output directory excluded.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
