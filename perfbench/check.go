package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/semindex"
)

// answer is what one operation returned, reduced to what the ranking
// contract fixes: hit IDs, exact score bits and order, or the suggester's
// correction.
type answer struct {
	ids     []int
	scores  []uint64
	suggest string
}

func newAnswer(hits []semindex.Hit, suggest string) answer {
	a := answer{suggest: suggest}
	if hits != nil {
		a.ids, a.scores = make([]int, len(hits)), make([]uint64, len(hits))
		for i, h := range hits {
			a.ids[i] = h.DocID
			a.scores[i] = math.Float64bits(h.Score)
		}
	}
	return a
}

func (a answer) equal(b answer) bool {
	if a.suggest != b.suggest || len(a.ids) != len(b.ids) {
		return false
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] || a.scores[i] != b.scores[i] {
			return false
		}
	}
	return true
}

// sameAs is equal(newAnswer(hits, suggest)) without the allocation.
func (a answer) sameAs(hits []semindex.Hit, suggest string) bool {
	if a.suggest != suggest || len(a.ids) != len(hits) {
		return false
	}
	for i, h := range hits {
		if a.ids[i] != h.DocID || a.scores[i] != math.Float64bits(h.Score) {
			return false
		}
	}
	return true
}

func (a answer) String() string {
	if a.ids == nil {
		return fmt.Sprintf("suggest %q", a.suggest)
	}
	var sb strings.Builder
	for i := range a.ids {
		fmt.Fprintf(&sb, "%d:%.6g ", a.ids[i], math.Float64frombits(a.scores[i]))
	}
	return strings.TrimSpace(sb.String())
}

// checker counts operations and the ones whose answer was wrong or that
// failed. It keeps the first few mismatches for the error report.
// Not safe for concurrent use: each client owns one and merges it.
type checker struct {
	attempted, failed int
	notes             []string
}

// maxNotes bounds the mismatches kept for the report.
const maxNotes = 5

// op counts one operation that completed with err.
func (c *checker) op(err error) {
	c.attempted++
	if err != nil {
		c.fail(err.Error())
	}
}

// pass counts one check that held.
func (c *checker) pass() { c.attempted++ }

// compare counts one check that got, the answer to query, equals want.
func (c *checker) compare(label, query string, got, want answer) {
	c.attempted++
	if !got.equal(want) {
		c.fail(fmt.Sprintf("%s %q: got [%s] want [%s]", label, query, got, want))
	}
}

// expect counts one check of a condition stated by ok.
func (c *checker) expect(ok bool, what string) {
	c.attempted++
	if !ok {
		c.fail(what)
	}
}

func (c *checker) fail(note string) {
	c.failed++
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, note)
	}
}

func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, n := range o.notes {
		if len(c.notes) < maxNotes {
			c.notes = append(c.notes, n)
		}
	}
}
