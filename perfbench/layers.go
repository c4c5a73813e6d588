package main

import (
	"time"

	"repro/internal/ie"
	"repro/internal/index"
	"repro/internal/inference"
	"repro/internal/loadgen"
	"repro/internal/populate"
	"repro/internal/semindex"
)

// pipelineProbe times the paper's indexing pipeline stage by stage on a
// fixed sample of corpus pages, each stage through its module's public
// call: extraction, ontology population, DL + rule inference, and the
// semantic documents the index receives (which reruns the whole chain).
func (r *run) pipelineProbe() {
	b := semindex.NewBuilder()
	n := r.p.pipeline
	if n > len(r.pages) {
		n = len(r.pages)
	}
	var extract, pop, infer, docs samples
	var events, triples, added, ruled, docCount []float64
	for k := 0; k < n; k++ {
		page := r.pages[k*len(r.pages)/n]

		t := time.Now()
		evs := ie.Extractor{}.ExtractMatch(page)
		extract = append(extract, time.Since(t))

		t = time.Now()
		pm := (&populate.Populator{Ontology: b.Ontology}).Populate(page, evs)
		pop = append(pop, time.Since(t))

		t = time.Now()
		res := inference.Run(b.Reasoner, b.Rules, pm.Model)
		infer = append(infer, time.Since(t))

		t = time.Now()
		ds := b.PageDocuments(semindex.FullInf, page)
		docs = append(docs, time.Since(t))

		events = append(events, float64(len(evs)))
		triples = append(triples, float64(pm.Model.Graph.Len()))
		added = append(added, float64(res.Model.Graph.Len()-pm.Model.Graph.Len()))
		ruled = append(ruled, float64(len(res.RuleProvenance)))
		docCount = append(docCount, float64(len(ds)))
	}
	r.vals["ie.extract_ms"] = extract.ms(0.5)
	r.vals["ie.events_per_page"] = mean(events)
	r.vals["populate.populate_ms"] = pop.ms(0.5)
	r.vals["populate.triples_per_page"] = mean(triples)
	r.vals["inference.run_ms"] = infer.ms(0.5)
	r.vals["inference.triples_added_per_page"] = mean(added)
	r.vals["inference.rule_triples_per_page"] = mean(ruled)
	r.vals["semindex.page_docs_ms"] = docs.ms(0.5)
	r.vals["semindex.docs_per_page"] = mean(docCount)
}

// kernelProbe times the per-shard search kernel on a fixed query sample,
// calling each shard's base semantic index directly: the limit-10 search
// (parse, DAAT/Block-Max scoring, stored-document fetch), the query
// parser alone, one stored-document fetch per hit, and the full match
// count at limit 0.
func (r *run) kernelProbe() {
	var search, parse, fetch samples
	var hits, matches []float64
	over := 0
	sample := r.kernelSample()
	for _, i := range sample {
		q := r.pool[i].Text

		t := time.Now()
		_, err := index.ParseQuery(q, semindex.QueryBoosts)
		parse = append(parse, time.Since(t))
		r.chk.op(err)

		total := 0
		for s := 0; s < shards; s++ {
			si := r.eng.Shard(s)
			t = time.Now()
			hs := si.Search(q, limit)
			search = append(search, time.Since(t))
			hits = append(hits, float64(len(hs)))
			for _, h := range hs {
				t = time.Now()
				si.Index.Doc(h.DocID)
				fetch = append(fetch, time.Since(t))
			}
			total += len(si.Search(q, 0))
		}
		matches = append(matches, float64(total))
		if total > 1000 {
			over++
		}
	}
	// A stream without suggest probes still reports the suggester, timed
	// here on the pool's first suggest probes.
	if r.p.noSuggest {
		for i, q := range r.pool {
			if q.Class != loadgen.ClassSuggest || len(r.suggestProbe) == r.p.kernel {
				continue
			}
			t := time.Now()
			r.eng.Suggest(r.pool[i].Text)
			r.suggestProbe = append(r.suggestProbe, time.Since(t))
		}
	}
	r.vals["semindex.search_p50_us"] = search.us(0.5)
	r.vals["semindex.search_p99_us"] = search.us(0.99)
	r.vals["index.parse_us"] = parse.us(0.5)
	r.vals["index.doc_fetch_us"] = fetch.us(0.5)
	r.vals["index.hits_per_query"] = mean(hits)
	r.vals["index.matches_per_query"] = mean(matches)
	r.vals["index.over_1000_share"] = ratio(float64(over), float64(len(sample)))
}
