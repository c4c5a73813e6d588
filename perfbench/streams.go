package main

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/loadgen"
)

// classPaper labels the ten Table 3 queries of the paper, mixed into
// every search stream beside loadgen's generated classes.
const classPaper loadgen.Class = "paper"

// paperShare is the chance (1 in paperShare) that an operation sends a
// paper query instead of a Zipf draw from the generated pool.
const paperShare = 20

// corpusPages materializes the seeded corpus of about docs documents and
// returns its pages, the league it was drawn from and the time spent
// inside NextPage. The engine builds from the slice, so set-up timings
// exclude the generator.
func corpusPages(seed int64, docs int) ([]*crawler.MatchPage, *corpus.Universe, time.Duration, error) {
	g := corpus.New(corpus.Spec{TargetDocs: docs, Seed: seed})
	pages, d, err := drain(g, -1)
	return pages, g.Universe(), d, err
}

// freshPages returns n pages that continue the corpus stream of seed
// past its first skip pages: matches crawled after the corpus was built.
// Equal Specs give identical streams, so the prefix is the corpus itself.
func freshPages(seed int64, skip, n int) ([]*crawler.MatchPage, error) {
	g := corpus.New(corpus.Spec{TargetDocs: 1 << 40, Seed: seed})
	pages, _, err := drain(g, skip+n)
	if err != nil {
		return nil, err
	}
	return pages[skip:], nil
}

// drain pulls up to max pages (all when max < 0) and times NextPage.
func drain(g *corpus.Generator, max int) ([]*crawler.MatchPage, time.Duration, error) {
	var pages []*crawler.MatchPage
	var spent time.Duration
	for max < 0 || len(pages) < max {
		t := time.Now()
		p, err := g.NextPage()
		spent += time.Since(t)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		pages = append(pages, p)
	}
	return pages, spent, nil
}

// pageSource replays a materialized page slice as a shard.PageSource.
type pageSource struct {
	pages []*crawler.MatchPage
	next  int
}

func (s *pageSource) NextPage() (*crawler.MatchPage, error) {
	if s.next >= len(s.pages) {
		return nil, io.EOF
	}
	s.next++
	return s.pages[s.next-1], nil
}

// queryPool templates segments independent pools of n queries each from
// the league's vocabulary with loadgen's default class mix, one after
// the other, then appends the paper's Table 3 queries. Each pool is one
// realization of loadgen's traffic: its order is its popularity ranking.
func queryPool(u *corpus.Universe, n, segments int, seed int64) []loadgen.Query {
	vocab := loadgen.VocabFromUniverse(u)
	var pool []loadgen.Query
	for j := 0; j < segments; j++ {
		pool = append(pool, loadgen.GenerateQueries(vocab, nil, n, seed*int64(segments)+int64(j))...)
	}
	for _, q := range eval.PaperQueries() {
		pool = append(pool, loadgen.Query{Class: classPaper, Text: q.Keywords})
	}
	return pool
}

// Query selection is loadgen.Run's popularity model: Zipf with exponent
// zipfS and offset zipfV over one pool's indices, rank k drawn with
// probability proportional to (zipfV+k)^-zipfS.
const (
	zipfS = 1.1
	zipfV = 1
)

// segment is one client's operations in one segment (pool
// realization): pool indices sent as warmup, then the measured ones.
type segment struct {
	warm, meas []int
}

// opSequence is the fixed list of operations client c sends, segment
// by segment. Segment j draws from the j-th generated pool of p.pool
// queries: p.warmup unmeasured operations (with p.warmPool, the
// client's share of one pass over the pool and the paper's queries),
// then p.ops/p.segments measured ones. The sequence depends only on
// (seed, c, p, pool).
func opSequence(seed int64, c int, p plan, pool []loadgen.Query) []segment {
	per := p.ops / p.segments
	seq := make([]segment, p.segments)
	for j := range seq {
		if p.warmPool {
			draws := segmentDraws(seed, c, j, per, p, pool)
			seq[j] = segment{warm: poolPass(c, j, p, pool), meas: draws}
			continue
		}
		draws := segmentDraws(seed, c, j, p.warmup+per, p, pool)
		seq[j] = segment{warm: draws[:p.warmup], meas: draws[p.warmup:]}
	}
	return seq
}

// poolPass is client c's share of one pass over segment j's pool (every
// p.clients-th query) and, for client 0, the paper's queries. With
// p.noSuggest the pool's suggest probes are left out.
func poolPass(c, j int, p plan, pool []loadgen.Query) []int {
	var out []int
	for k := j*p.pool + c; k < (j+1)*p.pool; k += p.clients {
		if !p.noSuggest || pool[k].Class != loadgen.ClassSuggest {
			out = append(out, k)
		}
	}
	if c == 0 {
		for i := len(pool) - len(eval.PaperQueries()); i < len(pool); i++ {
			out = append(out, i)
		}
	}
	return out
}

// segmentDraws returns n pool indices of client c's stream in segment
// j, with one operation in paperShare sending a paper query instead of
// a generated one. The generated queries are Zipf draws over the
// segment's p.pool queries, the popularity model of loadgen.Run; with
// p.distinct, they are the pool's queries in a seeded random order,
// none twice: the stream of distinct queries that a cache in front of
// the engine lets through. With p.noSuggest, suggest probes are left
// out.
func segmentDraws(seed int64, c, j, n int, p plan, pool []loadgen.Query) []int {
	generated := len(pool) - len(eval.PaperQueries())
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)*104723 + int64(j)*1299709 + 1))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(p.pool-1))
	perm := rng.Perm(p.pool)
	next := func() int {
		if p.distinct {
			k := perm[0]
			perm = perm[1:]
			return k
		}
		return int(zipf.Uint64())
	}
	out := make([]int, n)
	for i := range out {
		if rng.Intn(paperShare) == 0 {
			out[i] = generated + rng.Intn(len(pool)-generated)
			continue
		}
		for {
			out[i] = j*p.pool + next()
			if !p.noSuggest || pool[out[i]].Class != loadgen.ClassSuggest {
				break
			}
		}
	}
	return out
}

// writeSchedule lists the n pages of the write probe. Even writes
// send the next fresh page; odd writes re-crawl (upsert) a page drawn
// uniformly from the corpus and the fresh pages sent so far. The
// schedule depends only on (seed, the page lists, n).
func writeSchedule(seed int64, corpusPages, fresh []*crawler.MatchPage, n int) []*crawler.MatchPage {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	known := append([]*crawler.MatchPage(nil), corpusPages...)
	out := make([]*crawler.MatchPage, n)
	next := 0
	for i := range out {
		if i%2 == 0 {
			out[i] = fresh[next]
			next++
			known = append(known, out[i])
		} else {
			out[i] = known[rng.Intn(len(known))]
		}
	}
	return out
}

// freshCount is how many fresh pages a schedule of n writes sends.
func freshCount(n int) int { return (n + 1) / 2 }
