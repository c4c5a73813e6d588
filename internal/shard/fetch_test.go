package shard

// Late materialization: sub-indexes rank without stored documents, and
// the engine fetches documents once, after the global merge, for the
// hits it returns. These tests pin the contract on every serving path.

import (
	"context"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/semindex"
)

// TestHitDocsMatchDocIDs: every returned hit's Doc is the stored document
// of its own DocID — its _gid meta names the hit, and it equals the
// document the building engine holds for that ID — on heap and mapped
// loads, with unmerged segments, on a deadline-degraded answer, through
// Related and SearchQuery, and on a cache hit.
func TestHitDocsMatchDocIDs(t *testing.T) {
	ref, base := saveFixture(t, 4)
	pages, _ := fixture(t)
	heap, err := Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	check := func(label string, hits []semindex.Hit) {
		t.Helper()
		if len(hits) == 0 {
			t.Fatalf("%s: no hits", label)
		}
		for i, h := range hits {
			if h.Doc == nil {
				t.Fatalf("%s: rank %d (doc %d) has no stored document", label, i+1, h.DocID)
			}
			if got := h.Doc.Get(MetaGID); got != strconv.Itoa(h.DocID) {
				t.Fatalf("%s: rank %d is doc %d but carries the document of %s", label, i+1, h.DocID, got)
			}
			if want := ref.Doc(h.DocID); !reflect.DeepEqual(h.Doc, want) {
				t.Fatalf("%s: rank %d doc %d differs from the built engine's:\ngot:  %+v\nwant: %+v",
					label, i+1, h.DocID, h.Doc, want)
			}
		}
	}
	engines := []struct {
		name string
		e    *Engine
	}{{"built", ref}, {"heap", heap}, {"mapped", mapped}}
	run := func(state string) {
		t.Helper()
		for _, en := range engines {
			label := en.name + "/" + state
			for _, q := range []string{"goal", "messi barcelona goal", "yellow card", "punishment"} {
				check(label+"/"+q+"/10", searchN(en.e, q, 10))
				check(label+"/"+q+"/all", searchN(en.e, q, 0))
			}
			src := searchN(en.e, "goal", 1)[0].DocID
			check(label+"/related", en.e.Related(src, 10))
			check(label+"/query", en.e.SearchQuery(index.MultiFieldQuery("yellow card", semindex.QueryBoosts), 10))
		}
	}
	run("clean")

	ctx := context.Background()
	for _, en := range engines {
		if _, err := en.e.Ingest(ctx, []*crawler.MatchPage{pages[0], pages[2]}, IngestOptions{Merge: MergeNone}); err != nil {
			t.Fatalf("%s Ingest: %v", en.name, err)
		}
	}
	if st := mapped.Stats(); st.Segments == 0 || st.Tombstones == 0 {
		t.Fatalf("expected unmerged segments and tombstones, got %+v", st)
	}
	run("segments")

	const stalled = 1
	mapped.SetStall(stallShard(stalled, 300*time.Millisecond))
	hits, rep := searchWithin(mapped, "goal", 10, 50*time.Millisecond)
	if !rep.Degraded || len(rep.Missing) != 1 || rep.Missing[0] != stalled {
		t.Fatalf("report %+v, want shard %d missing", rep, stalled)
	}
	check("mapped/degraded", hits)
	mapped.SetStall(nil)

	mapped.EnableCache(1<<20, nil)
	for i, want := range []CacheStatus{CacheMiss, CacheHit} {
		res, err := mapped.Search(ctx, "yellow card", SearchOptions{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != want {
			t.Fatalf("search %d: cache %s, want %s", i, res.Cache, want)
		}
		check("mapped/cache-"+string(want), res.Hits)
	}
}

// TestMappedSearchDecodesOnlyReturnedDocs: a limit-10 Search on a freshly
// opened 4-shard mapped engine decodes at most the 10 documents it
// returns, not each shard's local top-10.
func TestMappedSearchDecodesOnlyReturnedDocs(t *testing.T) {
	_, base := saveFixture(t, 4)
	for _, q := range []string{"goal", "messi barcelona goal", "yellow card"} {
		e, err := LoadWith(base, nil, LoadOptions{Mapped: true})
		if err != nil {
			t.Fatal(err)
		}
		hits := searchN(e, q, 10)
		decoded, contributing := 0, 0
		for s := range e.base {
			shardHits := 0
			for _, sub := range e.subsLocked(s) {
				decoded += sub.si.Index.CachedDocs()
				shardHits += len(sub.si.Rank(q, 10))
			}
			if shardHits > 0 {
				contributing++
			}
		}
		e.Close()
		if contributing < 2 {
			t.Fatalf("%q: only %d shards match; the test needs a real merge", q, contributing)
		}
		if decoded != len(hits) || decoded > 10 {
			t.Fatalf("%q: %d stored documents decoded for %d returned hits", q, decoded, len(hits))
		}
	}
}

// TestSearchTraceFetchSpan: a traced search records the stored-document
// fetch as its own "fetch" span beside the shard and merge spans.
func TestSearchTraceFetchSpan(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	tr := obs.NewTrace("goal")
	if _, err := e.Search(context.Background(), "goal", SearchOptions{Limit: 10, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	names := map[string]int{}
	for _, s := range tr.Spans() {
		names[s.Name]++
	}
	for _, want := range []string{"shard0", "shard1", "merge", "fetch"} {
		if names[want] != 1 {
			t.Errorf("trace has %d %q spans, want 1 (got %v)", names[want], want, names)
		}
	}
}
