package semindex

import (
	"strings"

	"repro/internal/index"
)

// Suggest proposes a corrected query when some token matches nothing in
// any searched field but has a close neighbour (edit distance 1) in the
// index vocabulary — the "did you mean" affordance keyword interfaces need
// for misspelled player names. It returns "" when the query needs no
// correction or none can be found.
func (s *SemanticIndex) Suggest(query string) string {
	boosts := QueryBoosts
	if s.Level == Trad {
		boosts = TradBoosts
	}
	return CorrectQuery(s.Index.Analyzer(), boosts, query, s.Index.DocFreq,
		func(field string, visit func(term string)) {
			for _, t := range s.Index.Terms(field) {
				visit(t)
			}
		})
}

// CorrectQuery is the spelling-correction core shared by the monolithic
// index and the sharded engine, parameterized by where the vocabulary
// lives: docFreq reports a term's document frequency in a field and
// eachTerm visits a field's dictionary in any order. The monolith passes its
// local index; the engine passes the exchanged corpus-wide statistics, so
// both produce identical corrections for identical vocabularies — a
// guarantee TestSuggestEquivalence holds the two callers to.
//
// A token is corrected when its analyzed form has no postings in any
// searched field; the replacement is the highest-df term within edit
// distance 1 (see nearestTerm for the tie-breaks, which make the answer
// independent of the order eachTerm visits a dictionary in).
func CorrectQuery(a index.Analyzer, boosts []index.FieldBoost, query string,
	docFreq func(field, term string) int, eachTerm func(field string, visit func(term string))) string {
	tokens := index.Tokenize(strings.ToLower(query))
	corrected := make([]string, len(tokens))
	changed := false
	for i, tok := range tokens {
		corrected[i] = tok
		analyzed := a.Analyze(tok)
		if len(analyzed) == 0 {
			continue // pure stopword: nothing to correct
		}
		target := analyzed[0]
		matches := false
		for _, fb := range boosts {
			if docFreq(fb.Field, target) > 0 {
				matches = true
				break
			}
		}
		if matches {
			continue
		}
		if alt := nearestTerm(target, boosts, docFreq, eachTerm); alt != "" {
			corrected[i] = alt
			changed = true
		}
	}
	if !changed {
		return ""
	}
	return strings.Join(corrected, " ")
}

// nearestTerm finds the highest-df vocabulary term within edit distance 1
// of the analyzed target, scanning fields in boost order (the
// subject/object player fields first — names are where typos happen).
// Within a field the highest df wins and the lexicographically smallest
// term breaks ties; across fields only a strictly higher df replaces an
// earlier field's pick. The rule is explicit so dictionaries can be
// visited unsorted.
func nearestTerm(target string, boosts []index.FieldBoost,
	docFreq func(field, term string) int, eachTerm func(field string, visit func(term string))) string {
	best := ""
	bestDF := 0
	bestField := -1
	for i, fb := range boosts {
		eachTerm(fb.Field, func(term string) {
			if term == target || !index.WithinEditDistance1(term, target) {
				return
			}
			df := docFreq(fb.Field, term)
			if df > bestDF || (df == bestDF && bestField == i && term < best) {
				best, bestDF, bestField = term, df, i
			}
		})
	}
	return best
}
