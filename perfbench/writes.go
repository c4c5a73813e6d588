package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// writeResult is the write probe's measurements.
type writeResult struct {
	lat         samples       // each write from its send to its ack
	cpu         time.Duration // process CPU time of the whole probe
	docsBefore  int           // live documents when the first write was sent
	segmentsMax int
	tombstones  int
	walBytes    int64
	pages       int
	chk         checker
}

// writePhase sends the pages back to back, one page per Ingest call,
// each timed from its send, with nothing else running.
func (r *run) writePhase(ws []*crawler.MatchPage) writeResult {
	res := writeResult{docsBefore: r.eng.NumDocs(), pages: len(ws)}
	walSize := func() int64 {
		fi, err := os.Stat(shard.WALPath(r.base))
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	w0 := walSize()
	cpu := mustCPU()
	for _, page := range ws {
		sent := time.Now()
		_, err := r.eng.Ingest(r.ctx, []*crawler.MatchPage{page}, shard.IngestOptions{})
		res.lat = append(res.lat, time.Since(sent))
		res.chk.op(err)
		if st := r.eng.Stats(); st.Segments > res.segmentsMax {
			res.segmentsMax = st.Segments
		}
	}
	res.cpu = mustCPU() - cpu
	res.tombstones = r.eng.Stats().Tombstones
	res.walBytes = walSize() - w0
	return res
}

// prepareWrites readies the engine for the write probe: the cached
// heap engine is saved (snapshot_mb) and, traced, reopened once to time
// the open; then the WAL is attached with socserve's default policy.
// The probe runs without the background merger: a merge of the mapped
// engine takes seconds of CPU, and where it overlapped the probe it
// would decide the writes' cost.
func (r *run) prepareWrites() error {
	if !r.p.mapped {
		dir := filepath.Join(r.cfg.dir, "probe")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		r.base = filepath.Join(dir, "idx.bin")
		t := time.Now()
		if err := r.eng.Save(r.base); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		r.vals["shard.save_s"] = time.Since(t).Seconds()
		r.vals["snapshot_mb"] = dirMiB(dir)
		if r.cfg.trace {
			if err := r.timeOpen(r.base); err != nil {
				return err
			}
		}
	}
	if err := r.eng.AttachWAL(r.base, walOptions); err != nil {
		return fmt.Errorf("attach WAL: %w", err)
	}
	// Start the probe from a collected heap, not from whatever garbage
	// the search phase and its checks left behind.
	runtime.GC()
	return nil
}

// checkAfterWrites checks the engine the writes left. Over the check
// sample, the workload's search path (cached where it caches), the
// uncached path and the fully merged engine give the same answers. The
// live document count must equal the count before the writes plus the
// documents of the fresh pages, prepared on a separate builder: a
// re-crawl replaces its page's documents one for one.
func (r *run) checkAfterWrites(docsBefore int, fresh []*crawler.MatchPage) {
	sample := r.checkSample()
	before := make([]answer, len(sample))
	for k, i := range sample {
		before[k] = r.uncached(i, &r.chk)
		served := r.served(i)
		if r.cfg.perturb != nil {
			r.cfg.perturb(stageAfterWrites, k, &served)
		}
		r.chk.compare("served vs uncached", r.pool[i].Text, served, before[k])
	}
	r.eng.ForceMerge()
	for k, i := range sample {
		r.chk.compare("merged vs unmerged", r.pool[i].Text, r.uncached(i, &r.chk), before[k])
		r.chk.compare("served after merge", r.pool[i].Text, r.served(i), before[k])
	}
	want := docsBefore
	for _, n := range pageDocCounts(fresh) {
		want += n
	}
	got := r.eng.NumDocs()
	r.chk.expect(got == want, fmt.Sprintf("NumDocs %d after writes, want %d", got, want))
}

// served answers pool query i through the workload's search path.
func (r *run) served(i int) answer {
	rep := r.do(r.pool[i], false)
	r.chk.op(rep.err)
	return newAnswer(rep.hits, rep.suggest)
}

// pageDocCounts prepares each page's documents on a fresh builder.
func pageDocCounts(pages []*crawler.MatchPage) []int {
	b := semindex.NewBuilder()
	out := make([]int, len(pages))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pages); i += workers {
				out[i] = len(b.PageDocuments(semindex.FullInf, pages[i]))
			}
		}(w)
	}
	wg.Wait()
	return out
}

// writeMetrics folds the write probe's measurements and the registry's
// counter motion from the start of the search phase through the checks
// (whose ForceMerge counts as merges) into the ingest metrics.
func (r *run) writeMetrics(w writeResult, before, after registry) {
	r.chk.merge(&w.chk)
	r.vals["ingest_cpu_ms"] = ratio(float64(w.cpu)/1e6, float64(w.pages))
	r.vals["run.ingest_p50_ms"] = w.lat.ms(0.5)
	r.vals["run.ingest_p90_ms"] = w.lat.ms(0.9)
	r.vals["shard.segments_max"] = float64(w.segmentsMax)
	r.vals["shard.tombstones_end"] = float64(w.tombstones)
	r.vals["wal.bytes_per_page"] = ratio(float64(w.walBytes), float64(w.pages))
	merges := float64(after.merges - before.merges)
	r.vals["shard.merges"] = merges
	r.vals["shard.merge_s"] = ratio(after.mergeSec-before.mergeSec, merges)
	r.vals["qcache.invalidations"] = float64(after.invalidations - before.invalidations)
	r.vals["qcache.evictions"] = float64(after.evictions - before.evictions)
}
