package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// clientResult is one closed-loop client's measurements.
type clientResult struct {
	n        int                       // measured operations sent so far
	byClass  map[loadgen.Class]samples // untraced measured operations
	traced   samples
	untraced samples
	status   map[shard.CacheStatus]int
	hitLat   samples
	missLat  samples
	spans    []spanSample
	// answers holds the first answer per pool index, on engines that do
	// not change while the client runs.
	answers map[int]answer
	chk     checker
}

// phaseResult is the search phase: every client's measurements, and
// the process CPU time and wall time of the windows in which the
// measured operations ran.
type phaseResult struct {
	clients   []clientResult
	cpu, wall time.Duration
}

// spanSample is one traced scatter: the slowest shard span, slowest
// over median shard span, the merge span and the rest of the call.
type spanSample struct {
	slowest, merge, self time.Duration
	skew                 float64
}

// reply is one operation's outcome.
type reply struct {
	hits    []semindex.Hit
	suggest string
	cache   shard.CacheStatus // "" for suggest probes
	took    time.Duration
	trace   *obs.Trace
	err     error
}

// searchPhase runs the segments one after the other. In each, every
// client sends the segment's warmup operations; once all of them have,
// the clients send the segment's measured operations. Only these
// measured windows are timed, on the process CPU clock and the wall
// clock, so warmup stays out of every figure. Garbage collection is
// charged to whichever window it runs in; no window is started from a
// forced collection, which would hide the cost of allocating.
func (r *run) searchPhase() phaseResult {
	res := phaseResult{clients: make([]clientResult, r.p.clients)}
	for c := range res.clients {
		res.clients[c] = clientResult{
			byClass: map[loadgen.Class]samples{},
			status:  map[shard.CacheStatus]int{},
			answers: map[int]answer{},
		}
	}
	for j := 0; j < r.p.segments; j++ {
		r.together(func(c int) { r.send(&res.clients[c], r.seqs[c][j].warm, false) })
		cpu, t := mustCPU(), time.Now()
		r.together(func(c int) { r.send(&res.clients[c], r.seqs[c][j].meas, true) })
		res.wall += time.Since(t)
		res.cpu += mustCPU() - cpu
	}
	return res
}

// together runs f once per client, each on its own goroutine, and
// waits for all of them.
func (r *run) together(f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < r.p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// send runs one closed-loop stretch of a client: each pool query sent
// as soon as the previous one returned, and its answer checked.
// Measured operations are counted; a traced run also records their
// wall times and traces every other one.
func (r *run) send(res *clientResult, queries []int, measured bool) {
	for _, i := range queries {
		m := -1
		if measured {
			m = res.n
			res.n++
		}
		traced := r.cfg.trace && measured && m%2 == 0
		rep := r.do(r.pool[i], traced)
		res.chk.op(rep.err)
		r.checkStream(res, i, m, rep)
		if !measured {
			continue
		}
		if rep.cache != "" {
			res.status[rep.cache]++
		}
		if !r.cfg.trace {
			continue // only the traced run reports per-operation figures
		}
		d := rep.took
		switch rep.cache {
		case shard.CacheHit:
			res.hitLat = append(res.hitLat, d)
		case shard.CacheMiss:
			res.missLat = append(res.missLat, d)
		}
		if traced {
			res.traced = append(res.traced, d)
			if s, ok := spanOf(rep.trace, d); ok {
				res.spans = append(res.spans, s)
			}
		} else {
			res.untraced = append(res.untraced, d)
			res.byClass[r.pool[i].Class] = append(res.byClass[r.pool[i].Class], d)
		}
	}
}

// do sends one operation through the workload's path and times it from
// issue to return.
func (r *run) do(q loadgen.Query, traced bool) reply {
	t := time.Now()
	if q.Class == loadgen.ClassSuggest {
		s := r.eng.Suggest(q.Text)
		return reply{suggest: s, took: time.Since(t)}
	}
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace(q.Text)
	}
	res, err := r.eng.Search(r.ctx, q.Text, shard.SearchOptions{Limit: limit, NoCache: !r.p.cached, Trace: tr})
	d := time.Since(t)
	if err == nil && res.Report.Degraded {
		err = fmt.Errorf("degraded answer to %q", q.Text)
	}
	return reply{hits: res.Hits, cache: res.Cache, took: d, trace: tr, err: err}
}

// checkStream holds the n-th measured answer (negative n: warmup) to
// the workload's independent path: on search_cold the engine as built,
// on search_cached the first answer given to the same query, which is
// itself compared with the uncached answer after the phase.
func (r *run) checkStream(res *clientResult, i, n int, rep reply) {
	var want answer
	var known bool
	switch {
	case r.ref != nil:
		want, known = r.ref[i], true
	case r.p.cached:
		want, known = res.answers[i]
	default:
		return
	}
	if known && r.cfg.perturb == nil && want.sameAs(rep.hits, rep.suggest) {
		res.chk.pass()
		return
	}
	got := newAnswer(rep.hits, rep.suggest)
	if n >= 0 && r.cfg.perturb != nil {
		r.cfg.perturb(stageStream, n, &got)
	}
	if !known {
		res.answers[i] = got
		return
	}
	res.chk.compare("stream", r.pool[i].Text, got, want)
}

// spanOf reads one traced scatter's spans.
func spanOf(tr *obs.Trace, wall time.Duration) (spanSample, bool) {
	var shardSpans samples
	var s spanSample
	for _, sp := range tr.Spans() {
		if sp.Name == "merge" {
			s.merge = sp.Dur
		} else if strings.HasPrefix(sp.Name, "shard") {
			shardSpans = append(shardSpans, sp.Dur)
		}
	}
	if len(shardSpans) == 0 {
		return s, false // a cache hit runs no scatter
	}
	sort.Slice(shardSpans, func(i, j int) bool { return shardSpans[i] < shardSpans[j] })
	s.slowest = shardSpans[len(shardSpans)-1]
	s.skew = ratio(float64(s.slowest), float64(shardSpans.quantile(0.5)))
	s.self = wall - s.slowest - s.merge
	return s, true
}

// checkCached compares the clients' answers with each other and every
// distinct one with the uncached answer, before any write changes the
// engine. The uncached answers are computed on every processor.
func (r *run) checkCached(reads []clientResult) {
	var idx []int
	seen := map[int]answer{}
	for c := range reads {
		for i, a := range reads[c].answers {
			if prev, ok := seen[i]; ok {
				r.chk.compare("client vs client", r.pool[i].Text, a, prev)
				continue
			}
			seen[i] = a
			idx = append(idx, i)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	want := make([]answer, len(idx))
	chks := make([]checker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(idx); k += workers {
				want[k] = r.uncached(idx[k], &chks[w])
			}
		}(w)
	}
	wg.Wait()
	for w := range chks {
		r.chk.merge(&chks[w])
	}
	for k, i := range idx {
		r.chk.compare("cached vs uncached", r.pool[i].Text, seen[i], want[k])
	}
}

// searchMetrics folds the clients' measurements into the end-to-end
// search metric and, traced, the scatter, class and cache layers.
func (r *run) searchMetrics(reads phaseResult) {
	var traced, untraced, hits, misses samples
	var spans []spanSample
	ops := 0
	byClass := map[loadgen.Class]samples{}
	status := map[shard.CacheStatus]int{}
	for c := range reads.clients {
		cr := &reads.clients[c]
		r.chk.merge(&cr.chk)
		ops += cr.n
		traced = append(traced, cr.traced...)
		untraced = append(untraced, cr.untraced...)
		hits = append(hits, cr.hitLat...)
		misses = append(misses, cr.missLat...)
		spans = append(spans, cr.spans...)
		for k, v := range cr.byClass {
			byClass[k] = append(byClass[k], v...)
		}
		for k, v := range cr.status {
			status[k] += v
		}
	}
	r.vals["search_cpu_us"] = ratio(float64(reads.cpu)/1e3, float64(ops))
	// Wall-clock figures, from the untraced operations: they follow the
	// host's load as much as the program's, so they are reported by the
	// traced run and not bounded.
	r.vals["run.search_p50_us"] = untraced.us(0.5)
	r.vals["run.search_p99_us"] = untraced.us(0.99)
	r.vals["run.search_qps"] = ratio(float64(ops), reads.wall.Seconds())
	if !r.cfg.trace {
		return
	}
	for _, c := range []loadgen.Class{loadgen.ClassKeyword, loadgen.ClassPhrase, loadgen.ClassField,
		loadgen.ClassFuzzy, loadgen.ClassSuggest, classPaper} {
		s := byClass[c]
		if len(s) == 0 && c == loadgen.ClassSuggest {
			s = r.suggestProbe
		}
		r.vals["search."+string(c)+"_p50_us"] = s.us(0.5)
	}
	r.vals["trace.overhead_pct"] = 100 * (traced.us(0.5) - untraced.us(0.5)) / untraced.us(0.5)
	var slow, merge, self samples
	var skew []float64
	for _, s := range spans {
		slow = append(slow, s.slowest)
		merge = append(merge, s.merge)
		self = append(self, s.self)
		skew = append(skew, s.skew)
	}
	r.vals["shard.scatter_p50_us"] = slow.us(0.5)
	r.vals["shard.scatter_p99_us"] = slow.us(0.99)
	r.vals["shard.skew"] = median(skew)
	r.vals["shard.merge_us"] = merge.us(0.5)
	r.vals["shard.self_us"] = self.us(0.5)
	searched := float64(status[shard.CacheHit] + status[shard.CacheMiss] + status[shard.CacheCoalesced])
	r.vals["qcache.hit_rate"] = ratio(float64(status[shard.CacheHit]), searched)
	r.vals["qcache.coalesced_share"] = ratio(float64(status[shard.CacheCoalesced]), searched)
	if !r.p.cached {
		hits, misses = r.probeHits, r.probeMisses
	}
	r.vals["qcache.hit_p50_us"] = hits.us(0.5)
	r.vals["qcache.miss_p99_us"] = misses.us(0.99)
}
