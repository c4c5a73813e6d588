package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// spec names one reported metric and its unit. BENCHMARK.json lists the
// same names; TestSpecsMatchBenchmarkJSON keeps the two in step.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, reported by every
// untraced run of every workload. Times are process CPU time (see
// processCPU): what the engine spends per set-up, search and ingested
// page.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"search_cpu_us", "us"},
	{"ingest_cpu_ms", "ms"},
	{"heap_mb", "MiB"},
	{"snapshot_mb", "MiB"},
}

// perLayer are the per-module metrics of a traced run, each timed from
// outside around a public call of its module, and the run's wall-clock
// figures.
var perLayer = []spec{
	{"corpus.gen_s", "s"},
	{"ie.extract_ms", "ms"},
	{"ie.events_per_page", "count"},
	{"populate.populate_ms", "ms"},
	{"populate.triples_per_page", "count"},
	{"inference.run_ms", "ms"},
	{"inference.triples_added_per_page", "count"},
	{"inference.rule_triples_per_page", "count"},
	{"semindex.page_docs_ms", "ms"},
	{"semindex.docs_per_page", "count"},
	{"shard.build_s", "s"},
	{"shard.build_docs_per_s", "1/s"},
	{"shard.save_s", "s"},
	{"shard.open_ms", "ms"},
	{"shard.scatter_p50_us", "us"},
	{"shard.scatter_p99_us", "us"},
	{"shard.skew", "ratio"},
	{"shard.merge_us", "us"},
	{"shard.self_us", "us"},
	{"semindex.search_p50_us", "us"},
	{"semindex.search_p99_us", "us"},
	{"index.parse_us", "us"},
	{"index.doc_fetch_us", "us"},
	{"index.hits_per_query", "count"},
	{"index.matches_per_query", "count"},
	{"index.over_1000_share", "ratio"},
	{"search.keyword_p50_us", "us"},
	{"search.phrase_p50_us", "us"},
	{"search.field_p50_us", "us"},
	{"search.fuzzy_p50_us", "us"},
	{"search.suggest_p50_us", "us"},
	{"search.paper_p50_us", "us"},
	{"qcache.hit_rate", "ratio"},
	{"qcache.coalesced_share", "ratio"},
	{"qcache.hit_p50_us", "us"},
	{"qcache.miss_p99_us", "us"},
	{"qcache.invalidations", "count"},
	{"qcache.evictions", "count"},
	{"shard.segments_max", "count"},
	{"shard.tombstones_end", "count"},
	{"shard.merges", "count"},
	{"shard.merge_s", "s"},
	{"wal.bytes_per_page", "bytes"},
	{"run.setup_wall_s", "s"},
	{"run.search_p50_us", "us"},
	{"run.search_p99_us", "us"},
	{"run.search_qps", "1/s"},
	{"run.ingest_p50_ms", "ms"},
	{"run.ingest_p90_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report selects the specs' values from vals, failing on a missing one.
func report(specs []spec, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, nil
}

// processCPU is the CPU time, user and system, that the process's
// threads have used so far. Unlike wall time it leaves out the time the
// processors spent on other work, the host's other tenants included
// (steal), which on a shared host sets most of a wall-clock figure's
// run-to-run spread.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// mustCPU is processCPU once execute has seen it work.
func mustCPU() time.Duration {
	d, _ := processCPU()
	return d
}

// samples is a list of durations summarized by nearest-rank quantiles.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile; 0 for no samples.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s samples) us(q float64) float64 { return float64(s.quantile(q)) / 1e3 }
func (s samples) ms(q float64) float64 { return float64(s.quantile(q)) / 1e6 }

// median of plain numbers.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
