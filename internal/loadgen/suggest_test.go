package loadgen

import (
	"errors"
	"io"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// TestSuggestEngineMatchesMonolith: the sharded engine visits its
// corpus-wide vocabulary in map order while the monolith scans a sorted
// dictionary, so identical corrections rest on the explicit tie-break
// rule alone. The probes are a generated suggest pool plus constructed
// document-frequency ties: a misspelling one edit away from two
// vocabulary terms of equal df, in one field or across fields.
func TestSuggestEngineMatchesMonolith(t *testing.T) {
	g := corpus.New(corpus.Spec{TargetDocs: 1200, Seed: 3, Teams: 16})
	var pages []*crawler.MatchPage
	for {
		p, err := g.NextPage()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	mono := semindex.NewBuilder().Build(semindex.FullInf, pages)
	eng := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: 4})

	var probes []string
	for _, q := range GenerateQueries(VocabFromUniverse(g.Universe()), map[Class]int{ClassSuggest: 1}, 200, 11) {
		probes = append(probes, q.Text)
	}
	ties := dfTieProbes(mono)
	if len(ties) < 5 {
		t.Fatalf("constructed only %d df-tie probes; the corpus no longer exercises the tie-break", len(ties))
	}
	probes = append(probes, ties...)

	corrected := 0
	for _, q := range probes {
		want := mono.Suggest(q)
		if want != "" {
			corrected++
		}
		// Map order differs between calls: ask more than once.
		for i := 0; i < 3; i++ {
			if got := eng.Suggest(q); got != want {
				t.Fatalf("engine Suggest(%q) = %q, monolith %q", q, got, want)
			}
		}
	}
	if corrected < len(probes)/2 {
		t.Fatalf("only %d of %d probes were corrected", corrected, len(probes))
	}
}

// dfTieProbes builds misspellings that sit one substitution away from
// two different vocabulary terms with equal document frequency (in the
// same searched field or in two of them) and that are themselves absent
// from every searched field, so the suggester must break a df tie.
func dfTieProbes(si *semindex.SemanticIndex) []string {
	a := si.Index.Analyzer()
	boosts := semindex.QueryBoosts
	absent := func(x string) bool {
		for _, fb := range boosts {
			if si.Index.DocFreq(fb.Field, x) > 0 {
				return false
			}
		}
		an := a.Analyze(x)
		return len(an) == 1 && an[0] == x
	}
	type entry struct {
		term string
		df   int
	}
	// Terms sharing all but position i share the key term[:i]+"?"+term[i+1:].
	groups := map[string][]entry{}
	for _, fb := range boosts {
		for _, term := range si.Index.Terms(fb.Field) {
			if len(term) < 4 {
				continue
			}
			df := si.Index.DocFreq(fb.Field, term)
			for i := 0; i < len(term); i++ {
				key := term[:i] + "?" + term[i+1:]
				groups[key] = append(groups[key], entry{term, df})
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, key := range keys {
		es := groups[key]
		tied := false
		for i := range es {
			for j := range es {
				tied = tied || (es[i].term != es[j].term && es[i].df == es[j].df)
			}
		}
		if !tied {
			continue
		}
		for c := byte('a'); c <= 'z'; c++ {
			x := ""
			for i := 0; i < len(key); i++ {
				if key[i] == '?' {
					x = key[:i] + string(c) + key[i+1:]
					break
				}
			}
			if absent(x) {
				out = append(out, x)
				break
			}
		}
		if len(out) == 40 {
			break
		}
	}
	return out
}
