package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/crawler"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/semindex"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Engine shape every workload serves: the paper's full-inference level
// over four hash partitions, with socserve's default 64 MiB query cache
// where the workload caches.
const (
	shards     = 4
	limit      = 10
	cacheBytes = 64 << 20
)

// walOptions is socserve's default -wal-sync policy: fsync every batch.
var walOptions = wal.Options{Policy: wal.SyncAlways}

// plan fixes one workload's sizes and operation counts. Counts are
// derived from --seconds, never from the clock, so two commits measured
// with the same arguments see the same number of samples.
type plan struct {
	docs      int // corpus target documents
	setupReps int // set-ups per run; setup_s is their median
	pool      int // generated queries per segment (the paper's ten come on top)
	// segments is the number of independent query pools (realizations of
	// loadgen's traffic) a run sends, each with its own warmup and an
	// equal share of the measured operations. A single pool's figures
	// would follow the few head queries its seed drew.
	segments int
	clients  int // closed-loop search clients
	warmup   int // operations per client and segment before measuring
	ops      int // measured operations per client, over all segments
	// distinct draws a segment's stream without repeats, in a seeded
	// order, instead of by popularity (see segmentDraws).
	distinct bool
	// warmPool replaces the warmup with one pass over the segment's
	// whole pool and the paper's queries, shared out among the clients,
	// so every measured operation of a cached stream is a cache hit.
	warmPool bool
	cached   bool // search through the query cache
	// noSuggest leaves suggest probes out of the stream: the cache never
	// serves them, and at ~500µs each they would take most of the time
	// of a stream meant to exercise the cache. Their share of a pool's
	// traffic (5% to 17% by seed) also set a cached stream's cost.
	noSuggest bool
	mapped    bool // serve a memory-mapped reopen of the saved snapshot
	writes    int  // one-page Ingest calls of the write probe
	checks    int  // pool queries re-checked after the writes
	kernel    int  // queries in the traced kernel probe
	pipeline  int  // pages in the traced pipeline probe
}

// plans maps workload names to their plan at the given run length.
// Both workloads end with the same write probe: writes pages sent back
// to back once the search phase is over, with nothing else running.
func plans(seconds int) map[string]plan {
	s := seconds
	return map[string]plan{
		"search_cold": {
			docs: 12_000, setupReps: 3, pool: 2_000, segments: 20,
			clients: 1, warmup: 25, ops: 240 * s, distinct: true,
			mapped: true, writes: 100,
			checks: 100, kernel: 50, pipeline: 12,
		},
		"search_cached": {
			docs: 12_000, setupReps: 3, pool: 1_000, segments: 10,
			clients: 2, ops: 100_000 * s, warmPool: true,
			cached: true, noSuggest: true, writes: 100,
			checks: 100, kernel: 50, pipeline: 12,
		},
	}
}

// config is one run.
type config struct {
	workload string
	seed     int64
	trace    bool
	dir      string    // scratch directory, removed by the caller
	log      io.Writer // progress lines; nil for none
	plan     plan
	// perturb, when set, may alter the n-th answer of a check stage
	// before it is checked: the self-tests' planted fault.
	perturb func(stage string, n int, a *answer)
}

// Check stages perturb sees: the measured stream of each client, and
// the served answers checked once the writes have stopped.
const (
	stageStream      = "stream"
	stageAfterWrites = "after-writes"
)

// run carries one workload execution.
type run struct {
	cfg   *config
	p     plan
	ctx   context.Context
	chk   checker
	vals  map[string]float64
	pages []*crawler.MatchPage
	pool  []loadgen.Query
	seqs  [][]segment // per client

	eng  *shard.Engine
	base string // snapshot base the serving engine was saved to
	// ref holds, for search_cold, the engine-as-built answer of every
	// pool query the clients send.
	ref map[int]answer
	// probeHits and probeMisses time the cached path of the engine as
	// built, for the traced search_cold run whose stream bypasses it.
	probeHits, probeMisses samples
	// suggestProbe times the suggester for streams without suggest probes.
	suggestProbe samples
}

// execute runs cfg's workload and returns its checker and every metric
// it measured (end-to-end and, when tracing, per-layer).
func execute(cfg *config) (*checker, map[string]float64, error) {
	if _, err := processCPU(); err != nil {
		return nil, nil, fmt.Errorf("process CPU time: %w", err)
	}
	r := &run{cfg: cfg, p: cfg.plan, ctx: context.Background(), vals: map[string]float64{}}
	defer r.close()
	pages, league, gen, err := corpusPages(cfg.seed, r.p.docs)
	if err != nil {
		return nil, nil, err
	}
	r.pages = pages
	r.vals["corpus.gen_s"] = gen.Seconds()
	r.pool = queryPool(league, r.p.pool, r.p.segments, cfg.seed)
	for c := 0; c < r.p.clients; c++ {
		r.seqs = append(r.seqs, opSequence(cfg.seed, c, r.p, r.pool))
	}
	fresh, err := freshPages(cfg.seed, len(r.pages), freshCount(r.p.writes))
	if err != nil {
		return nil, nil, err
	}
	schedule := writeSchedule(cfg.seed, r.pages, fresh, r.p.writes)

	phase := time.Now()
	if err := r.setup(); err != nil {
		return nil, nil, err
	}
	r.progress(&phase, "setup")
	if cfg.trace {
		r.pipelineProbe()
		r.kernelProbe()
		r.progress(&phase, "layer probes")
	}
	// The engine holds what it needs of the corpus; the write schedule
	// keeps its own pages.
	r.pages = nil

	before := registrySnapshot()
	reads := r.searchPhase()
	r.vals["heap_mb"] = liveHeapMiB()
	if r.p.cached {
		r.checkCached(reads.clients)
	}
	r.progress(&phase, "search phase")
	if err := r.prepareWrites(); err != nil {
		return nil, nil, err
	}
	writes := r.writePhase(schedule)
	r.progress(&phase, "write probe")
	r.checkAfterWrites(writes.docsBefore, fresh)
	r.progress(&phase, "checks")
	r.searchMetrics(reads)
	r.writeMetrics(writes, before, registrySnapshot())

	// heap_mb is the engine's share of the live heap: what the timed
	// phase left live, less what is still live once the engine is closed
	// and dropped, the benchmark's own inputs and samples.
	r.close()
	r.vals["heap_mb"] -= liveHeapMiB()
	runtime.KeepAlive(reads)
	runtime.KeepAlive(schedule)
	runtime.KeepAlive(fresh)
	r.chk.expect(r.vals["heap_mb"] > 0, fmt.Sprintf("engine heap %.2f MiB", r.vals["heap_mb"]))
	return &r.chk, r.vals, nil
}

// progress logs the time since *since and resets it.
func (r *run) progress(since *time.Time, what string) {
	if r.cfg.log != nil {
		fmt.Fprintf(r.cfg.log, "%s: %s %.2fs\n", r.cfg.workload, what, time.Since(*since).Seconds())
	}
	*since = time.Now()
}

// close releases the serving engine.
func (r *run) close() {
	if r.eng == nil {
		return
	}
	_ = r.eng.CloseWAL() // the snapshot directory is scratch
	_ = r.eng.Close()
	r.eng = nil
}

// setupTimes is one set-up, phase by phase, in wall time, and the
// process CPU time of all its phases together.
type setupTimes struct{ build, save, open, cpu time.Duration }

// setup builds the serving engine setupReps times, keeping the last,
// and records setup_s as the median set-up's CPU time: build, plus save
// and memory-mapped reopen on search_cold.
func (r *run) setup() error {
	reps := r.p.setupReps
	if r.cfg.trace {
		reps = 1 // the traced run reports layers, not setup_s
	}
	var setups, walls, builds, saves, opens []float64
	for rep := 0; rep < reps; rep++ {
		r.close()
		dir := filepath.Join(r.cfg.dir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t, err := r.setupOnce(dir, rep == reps-1)
		if err != nil {
			return err
		}
		setups = append(setups, t.cpu.Seconds())
		walls = append(walls, (t.build + t.save + t.open).Seconds())
		builds = append(builds, t.build.Seconds())
		if t.save > 0 {
			saves = append(saves, t.save.Seconds())
		}
		if t.open > 0 {
			opens = append(opens, t.open.Seconds())
		}
		if rep < reps-1 {
			r.close()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	r.vals["setup_s"] = median(setups)
	r.vals["run.setup_wall_s"] = median(walls)
	r.vals["shard.build_s"] = median(builds)
	r.vals["shard.build_docs_per_s"] = float64(r.eng.NumDocs()) / median(builds)
	if len(saves) > 0 {
		r.vals["shard.save_s"] = median(saves)
	}
	if len(opens) > 0 {
		r.vals["shard.open_ms"] = median(opens) * 1e3
	}
	runtime.GC()
	return nil
}

// setupOnce builds the serving engine into r.eng; on search_cold it
// saves it under dir and reopens the snapshot memory-mapped. On the
// last set-up of search_cold it records the built engine's answers
// before saving it; that and the forced collections are left out of
// the times.
func (r *run) setupOnce(dir string, last bool) (setupTimes, error) {
	var st setupTimes
	base := filepath.Join(dir, "idx.bin")
	cache := int64(0)
	if r.p.cached || (r.cfg.trace && r.p.mapped) {
		cache = cacheBytes
	}
	runtime.GC() // the previous set-up's engine is not this one's garbage
	var eng *shard.Engine
	err := st.time(&st.build, func() (err error) {
		eng, err = shard.BuildStream(nil, semindex.FullInf, &pageSource{pages: r.pages},
			shard.Options{Shards: shards, CacheBytes: cache})
		return err
	})
	if err != nil {
		return st, fmt.Errorf("build: %w", err)
	}
	r.eng, r.base = eng, base
	if !r.p.mapped {
		return st, nil
	}
	if last {
		r.references()
	}
	if err := st.time(&st.save, func() error { return eng.Save(base) }); err != nil {
		return st, fmt.Errorf("save: %w", err)
	}
	r.vals["snapshot_mb"] = dirMiB(dir)
	r.close()
	runtime.GC()
	err = st.time(&st.open, func() (err error) {
		r.eng, err = shard.LoadWith(base, nil, shard.LoadOptions{Mapped: true})
		return err
	})
	if err != nil {
		return st, fmt.Errorf("open: %w", err)
	}
	// A shard that fell back to heap decoding, or was quarantined, would
	// answer correctly without exercising the mapped read path.
	rep := r.eng.LoadReport()
	r.chk.expect(len(rep.MappedFallback) == 0 && len(rep.Quarantined) == 0,
		fmt.Sprintf("mapped open: %d shard(s) heap-decoded, %d quarantined", len(rep.MappedFallback), len(rep.Quarantined)))
	return st, nil
}

// time runs f, storing its wall time in *wall and adding its process
// CPU time to st.cpu.
func (st *setupTimes) time(wall *time.Duration, f func() error) error {
	c, t := mustCPU(), time.Now()
	err := f()
	*wall = time.Since(t)
	st.cpu += mustCPU() - c
	return err
}

// references records the built engine's answer to every pool query the
// clients will send: the independent path search_cold's memory-mapped
// answers are held to. Traced, it also times this engine's cached path.
func (r *run) references() {
	r.ref = map[int]answer{}
	record := func(queries []int) {
		for _, i := range queries {
			if _, ok := r.ref[i]; !ok {
				r.ref[i] = r.uncached(i, &r.chk)
			}
		}
	}
	for _, seq := range r.seqs {
		for _, seg := range seq {
			record(seg.warm)
			record(seg.meas)
		}
	}
	if !r.cfg.trace {
		return
	}
	for pass := 0; pass < 2; pass++ {
		for _, i := range r.kernelSample() {
			t := time.Now()
			res, err := r.eng.Search(r.ctx, r.pool[i].Text, shard.SearchOptions{Limit: limit})
			d := time.Since(t)
			r.chk.op(err)
			switch res.Cache {
			case shard.CacheHit:
				r.probeHits = append(r.probeHits, d)
			case shard.CacheMiss:
				r.probeMisses = append(r.probeMisses, d)
			}
		}
	}
}

// uncached answers pool query i with the cache bypassed, counting the
// operation in chk.
func (r *run) uncached(i int, chk *checker) answer {
	q := r.pool[i]
	if q.Class == loadgen.ClassSuggest {
		return newAnswer(nil, r.eng.Suggest(q.Text))
	}
	res, err := r.eng.Search(r.ctx, q.Text, shard.SearchOptions{Limit: limit, NoCache: true})
	chk.op(err)
	return newAnswer(res.Hits, "")
}

// timeOpen reopens the snapshot at base memory-mapped once, for the
// traced runs whose set-up does not open one, and closes it again.
func (r *run) timeOpen(base string) error {
	t := time.Now()
	m, err := shard.LoadWith(base, nil, shard.LoadOptions{Mapped: true})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.vals["shard.open_ms"] = float64(time.Since(t)) / 1e6
	return m.Close()
}

// checkSample is the post-write check's queries: the head of the pool
// and the paper's queries.
func (r *run) checkSample() []int {
	return poolSample(r.pool, r.p.checks, true)
}

// kernelSample is the traced kernel probe's queries: the head of the
// pool without suggest probes, and the paper's queries.
func (r *run) kernelSample() []int {
	return poolSample(r.pool, r.p.kernel, false)
}

// poolSample takes the first n generated queries (suggest probes only
// when withSuggest) plus every paper query.
func poolSample(pool []loadgen.Query, n int, withSuggest bool) []int {
	var out []int
	for i, q := range pool {
		switch {
		case q.Class == classPaper:
			out = append(out, i)
		case q.Class == loadgen.ClassSuggest && !withSuggest:
		case n > 0:
			out = append(out, i)
			n--
		}
	}
	return out
}

// registry is the process registry's counters the benchmark reads.
type registry struct {
	merges, invalidations, evictions uint64
	mergeSec                         float64
}

func registrySnapshot() registry {
	return registry{
		merges:        obs.Default.Counter("shard_engine_merges_total").Value(),
		mergeSec:      obs.Default.Histogram("shard_engine_merge_seconds", nil).Sum(),
		invalidations: obs.Default.Counter(qcache.MetricInvalidations).Value(),
		evictions:     obs.Default.Counter(qcache.MetricEvictions).Value(),
	}
}

// liveHeapMiB forces a collection and reports the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirMiB sums the sizes of the regular files in dir.
func dirMiB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return float64(n) / (1 << 20)
}
