package semindex

import "sort"

// Facet is one aggregation bucket.
type Facet struct {
	Value string
	Count int
}

// Facets aggregates hit counts over a stored metadata field (event kind,
// match, subject team...), the standard drill-down affordance of a search
// UI: "punishment -> YellowCard (31), RedCard (6), SecondYellowCard (2)".
// Buckets are sorted by descending count, then value.
func Facets(hits []Hit, metaField string) []Facet {
	counts := map[string]int{}
	for _, h := range hits {
		v := h.Meta(metaField)
		if v == "" {
			continue
		}
		counts[v]++
	}
	out := make([]Facet, 0, len(counts))
	for v, c := range counts {
		out = append(out, Facet{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Related returns documents similar to the given hit, ranked by shared
// discriminative vocabulary across the ontological fields.
func (s *SemanticIndex) Related(docID int, limit int) []Hit {
	q := s.Index.MoreLikeThis(docID, QueryBoosts, 8)
	if q == nil {
		return nil
	}
	return s.withDocs(s.Index.Search(q, limit))
}
