package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or its service sees,
// printed by an untraced run (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
	{"sim_minst_per_s", "Minst/s"},
	{"host_work_per_kinst", "units/kinst"},
	{"cycle_error_pct", "%"},
	{"ok_ratio", "ratio"},
	{"host_mem_mb", "MiB"},
}

// perLayer are the metrics of single layers, printed by a traced run
// (BENCHMARK.json per_layer). A layer a workload does not reach reads 0.
var perLayer = append([]metricDef{
	{"bench.jobs", "count"},
	{"bench.fail_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"spec.key_us", "us"},
	{"slacksim.new_ms", "ms"},
	{"slacksim.release_us", "us"},
	{"slacksim.allocs_per_job", "allocs/job"},
	{"slacksim.alloc_mb_per_job", "MiB/job"},
	{"workload.verify_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.ns_per_core_cycle", "ns"},
	{"engine.ns_per_event", "ns"},
	{"engine.runs", "count"},
	{"engine.core_cycles", "cycles/run"},
	{"engine.events_served", "events/run"},
	{"engine.suspensions", "count/run"},
	{"engine.suspensions_per_kcycle", "1/kcycle"},
	{"engine.host_work_units", "units/run"},
	{"engine.checkpoints", "count/run"},
	{"engine.checkpoint_words", "words/run"},
	{"engine.ckpt_words_per_kcycle", "words/kcycle"},
	{"engine.rollbacks", "count/run"},
	{"engine.wasted_cycles", "cycles/run"},
	{"engine.replay_cycles", "cycles/run"},
	{"engine.rollback_useful_ratio", "ratio"},
	{"engine.checkpoint_used_ratio", "ratio"},
	{"violation.bus_rate_pct", "%"},
	{"violation.map_rate_pct", "%"},
	{"adaptive.mean_bound", "cycles"},
	{"adaptive.adjustments", "count/run"},
	{"core.cpi", "cycles/inst"},
	{"core.mispredict_ratio", "ratio"},
	{"core.barrier_wait_share", "ratio"},
	{"core.lock_retries_per_kinst", "1/kinst"},
	{"client.submit_ms", "ms"},
	{"server.hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.runner_ms", "ms"},
	{"jobqueue.wait_ms_p50", "ms"},
	{"jobqueue.wait_ms_p90", "ms"},
	{"fleet.dispatch_ms_p50", "ms"},
	{"fleet.dispatch_ms_p90", "ms"},
	{"fleet.attempts_per_job", "ratio"},
	{"fleet.spill_ratio", "ratio"},
	{"durable.cache_get_us", "us"},
	{"durable.cache_put_ms", "ms"},
	{"durable.journal_submit_ms_p50", "ms"},
	{"durable.journal_submit_ms_p90", "ms"},
	{"durable.wal_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}, selfTimeDefs()...)

// selfTimeDefs names each layer's mean self time per job.
func selfTimeDefs() []metricDef {
	out := make([]metricDef, len(layers))
	for i, l := range layers {
		out[i] = metricDef{l + ".self_ms", "ms"}
	}
	return out
}

// values holds computed metrics by name.
type values map[string]float64

// metric is one named value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// render attaches units to every metric in defs, reading 0 for one v
// lacks, and rejects a name, unit or value the result line may not carry
// or a value defs does not name.
func render(defs []metricDef, v values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return nil, fmt.Errorf("metric name %q is not [A-Za-z0-9_.-], at most 64 long", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return nil, fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-], at most 16 long", d.name, d.unit)
		}
		x := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s: value %v is not finite", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	for n := range v {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", n)
		}
	}
	return out, nil
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailPercentile returns the highest of the standard percentiles that has
// at least minTail of n samples beyond it, or 0 when even the median has
// fewer. A run must hold 100 jobs for the p90 the benchmark reports.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n > 0 && n-rank(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps exact products such as 99.9% of 10000 from
// rounding up a rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank p-th percentile of xs (0 for no samples).
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
