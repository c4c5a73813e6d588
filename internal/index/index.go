package index

import (
	"math"
	"sort"
)

// Posting records the occurrences of one term in one document field.
type Posting struct {
	// DocID is the document the term occurs in.
	DocID int
	// Positions are the token positions of each occurrence, ascending.
	Positions []int
	// Boost is the field boost captured at indexing time.
	Boost float64
}

// Freq returns the within-document term frequency.
func (p Posting) Freq() int { return len(p.Positions) }

// postingBlockSize is the number of postings per Block-Max block: posting
// lists are carved into fixed runs of this many entries, each carrying its
// own score-bound inputs (termCap), so the DAAT kernel can skip whole
// blocks — not just whole terms — against the collector's threshold. 128
// matches the codec v2 on-disk block size (Lucene's choice), small enough
// that a block's bound is much tighter than the term's, large enough that
// the metadata is negligible next to the postings it covers.
const postingBlockSize = 128

// fieldIndex is the inverted index of a single field.
type fieldIndex struct {
	postings map[string][]Posting
	// docLen maps docID to the field's token count, for length norms.
	docLen map[int]int
	// sumLen accumulates total tokens, for BM25's average field length.
	sumLen int
	// boost records the per-doc field boost (last write wins per doc).
	boost map[int]float64
	// caps tracks each term's score-bound inputs for MaxScore pruning,
	// maintained incrementally by Add and rebuilt by the codec on load.
	caps map[string]termCap
	// blocks tracks per-block score-bound inputs for terms spanning more
	// than one posting block (block i covers postings
	// [i*postingBlockSize, (i+1)*postingBlockSize)). Single-block terms
	// carry no entry — their only block bound is exactly caps[term].
	// Maintained incrementally by Add, read from codec v2 snapshots,
	// rebuilt from the postings for codec v1.
	blocks map[string][]termCap
	// m, when set, is the mapped (zero-copy) postings view: the maps above
	// stay empty and every reader branches to the byte region (mapped.go).
	m *mappedField
}

// termCap records the inputs from which a term's score upper bound is
// derived at query time: the largest within-document frequency, the
// shortest document carrying the term (tracked conservatively — a
// multi-valued field observed mid-growth only shrinks the bound's length,
// which loosens, never invalidates, the cap), and the largest posting
// boost.
type termCap struct {
	maxFreq  int
	minLen   int
	maxBoost float64
}

// newFieldIndex returns an empty single-field inverted index.
func newFieldIndex() *fieldIndex {
	return &fieldIndex{
		postings: make(map[string][]Posting),
		docLen:   make(map[int]int),
		boost:    make(map[int]float64),
		caps:     make(map[string]termCap),
		blocks:   make(map[string][]termCap),
	}
}

// avgLen is the mean field length across documents carrying the field.
func (fi *fieldIndex) avgLen() float64 {
	n := len(fi.docLen)
	if fi.m != nil {
		n = fi.m.docCount
	}
	if n == 0 {
		return 0
	}
	return float64(fi.sumLen) / float64(n)
}

// numTerms is the distinct-term count whatever the storage mode.
func (fi *fieldIndex) numTerms() int {
	if fi.m != nil {
		return len(fi.m.terms)
	}
	return len(fi.postings)
}

// termNames returns the unsorted term dictionary keys.
func (fi *fieldIndex) termNames() []string {
	if fi.m != nil {
		out := make([]string, 0, len(fi.m.terms))
		for t := range fi.m.terms {
			out = append(out, t)
		}
		return out
	}
	out := make([]string, 0, len(fi.postings))
	for t := range fi.postings {
		out = append(out, t)
	}
	return out
}

// numPostings is a term's posting count without materializing anything.
func (fi *fieldIndex) numPostings(term string) int {
	if fi.m != nil {
		if t := fi.m.terms[term]; t != nil {
			return t.n
		}
		return 0
	}
	return len(fi.postings[term])
}

// postingsOf materializes a term's posting list — O(1) slice handout on
// the heap path, a full block decode on the mapped path (the escape hatch
// the exhaustive oracle, merges and stats walk through; scorers use block
// cursors instead).
func (fi *fieldIndex) postingsOf(term string) []Posting {
	if fi.m != nil {
		return fi.m.materialize(term)
	}
	return fi.postings[term]
}

// termCapOf returns a term's score-bound inputs (exact on both storage
// modes once loaded from disk).
func (fi *fieldIndex) termCapOf(term string) (termCap, bool) {
	if fi.m != nil {
		if t := fi.m.terms[term]; t != nil {
			return t.cap, true
		}
		return termCap{}, false
	}
	c, ok := fi.caps[term]
	return c, ok
}

// lengthOf is fi.docLen[docID] whatever the storage mode.
func (fi *fieldIndex) lengthOf(docID int) int {
	if fi.m != nil {
		return fi.m.lengthOf(docID)
	}
	return fi.docLen[docID]
}

// eachDocLen visits every field-length entry (docID, length). Ascending
// docID on the mapped path, map order on the heap path — callers must not
// depend on order.
func (fi *fieldIndex) eachDocLen(fn func(id, l int)) {
	if fi.m != nil {
		for id := 0; id < len(fi.m.docLen); id++ {
			if fi.m.hasEntry(id) {
				fn(id, int(fi.m.docLen[id]))
			}
		}
		return
	}
	for id, l := range fi.docLen {
		fn(id, l)
	}
}

// boostOf is fi.boost[id] (missing = 0) whatever the storage mode.
func (fi *fieldIndex) boostOf(id int) float64 {
	if fi.m != nil {
		j, ok := searchInt32(fi.m.boostIDs, int32(id))
		if !ok {
			return 0
		}
		return fi.m.boostVals[j]
	}
	return fi.boost[id]
}

// Index is an in-memory inverted index over documents with analyzed fields,
// the stand-in for a Lucene index. Build it once with Add, then search; it
// is not safe for concurrent mutation but safe for concurrent searching,
// mirroring the paper's offline-build / online-query discipline.
type Index struct {
	analyzer Analyzer
	sim      Similarity
	fields   map[string]*fieldIndex
	docs     []*Document
	// global, when set, replaces the local df / doc-count / avg-length
	// statistics in every ranking formula (see stats.go) so a shard of a
	// partitioned corpus ranks exactly like the whole.
	global *CorpusStats
	// exhaustive routes Search through the term-at-a-time map-accumulator
	// path instead of the DAAT kernel (see SetExhaustive).
	exhaustive bool
	// deleted marks tombstoned documents (Lucene's liveDocs, inverted).
	// Postings are never rewritten; the collect points in Search and
	// ExhaustiveSearch skip dead docIDs instead, and a merge drops them.
	deleted    []bool
	numDeleted int
	// mapped, when set, means this index serves from a mapped byte region
	// (OpenMapped): ix.docs stays empty until the stored region lazily
	// materializes, and ix.fields carry mappedField views. The index is
	// read-only except for tombstones.
	mapped *mappedIndex
}

// New returns an empty index using the analyzer for every field and the
// classic TF-IDF similarity.
func New(a Analyzer) *Index {
	if a == nil {
		a = StandardAnalyzer{}
	}
	return &Index{analyzer: a, sim: ClassicTFIDF{}, fields: make(map[string]*fieldIndex)}
}

// SetSimilarity swaps the ranking function (e.g. for the BM25 ablation).
// Must be called before searching; it does not affect indexed data.
func (ix *Index) SetSimilarity(s Similarity) { ix.sim = s }

// Analyzer returns the index's analyzer, which query parsers must reuse so
// query terms and index terms agree.
func (ix *Index) Analyzer() Analyzer { return ix.analyzer }

// Add indexes the document and returns its docID. Fields whose name starts
// with '_' are stored but not indexed — the semantic index uses them to
// carry evaluation metadata without polluting the term space.
func (ix *Index) Add(d *Document) int {
	if ix.mapped != nil {
		// The mapped region is immutable; fresh writes belong in a new
		// (heap) segment — the LSM write side the shard layer runs.
		panic("index: Add on a mapped index")
	}
	id := len(ix.docs)
	ix.docs = append(ix.docs, d)
	ix.deleted = append(ix.deleted, false)
	for _, f := range d.Fields {
		if len(f.Name) > 0 && f.Name[0] == '_' {
			continue
		}
		fi := ix.fields[f.Name]
		if fi == nil {
			fi = newFieldIndex()
			ix.fields[f.Name] = fi
		}
		terms := ix.analyzer.Analyze(f.Text)
		base := fi.docLen[id] // continuation position for multi-valued fields
		fi.docLen[id] = base + len(terms)
		fi.sumLen += len(terms)
		boost := f.Boost
		if boost == 0 {
			boost = 1
		}
		fi.boost[id] = boost
		for pos, term := range terms {
			pl := fi.postings[term]
			if n := len(pl); n > 0 && pl[n-1].DocID == id {
				pl[n-1].Positions = append(pl[n-1].Positions, base+pos)
			} else {
				pl = append(pl, Posting{DocID: id, Positions: []int{base + pos}, Boost: boost})
			}
			fi.postings[term] = pl
			// Keep the term's score-bound inputs current: the last posting
			// is always this document's.
			p := &pl[len(pl)-1]
			freq, dlen := len(p.Positions), fi.docLen[id]
			if c, ok := fi.caps[term]; !ok {
				fi.caps[term] = termCap{maxFreq: freq, minLen: dlen, maxBoost: p.Boost}
			} else if c.observe(freq, dlen, p.Boost) {
				fi.caps[term] = c
			}
			fi.observeBlock(term, pl, freq, dlen, p.Boost)
		}
	}
	return id
}

// NumDocs returns the number of indexed documents, including tombstoned
// ones — it is the docID space size, not the live count (see LiveDocs).
func (ix *Index) NumDocs() int { return ix.docCount() }

// Delete tombstones a document: it stops matching queries immediately but
// keeps its docID (and its stored fields, for merge-time bookkeeping)
// until a merge drops it. Reports whether the document was newly deleted.
// Like Add, not safe against concurrent searches.
func (ix *Index) Delete(id int) bool {
	if id < 0 || id >= ix.docCount() {
		return false
	}
	// Decoded snapshots carry no tombstones and leave the slice unsized;
	// grow it on the first delete after a load.
	if len(ix.deleted) < ix.docCount() {
		ix.deleted = append(ix.deleted, make([]bool, ix.docCount()-len(ix.deleted))...)
	}
	if ix.deleted[id] {
		return false
	}
	ix.deleted[id] = true
	ix.numDeleted++
	return true
}

// IsDeleted reports whether the document is tombstoned.
func (ix *Index) IsDeleted(id int) bool {
	return id >= 0 && id < len(ix.deleted) && ix.deleted[id]
}

// NumDeleted returns the tombstone count.
func (ix *Index) NumDeleted() int { return ix.numDeleted }

// DeletedMask returns a copy of the tombstone bits — the liveness
// snapshot a background merge works against (see MergeIndexes).
func (ix *Index) DeletedMask() []bool {
	if len(ix.deleted) == 0 {
		return nil
	}
	return append([]bool(nil), ix.deleted...)
}

// LiveDocs returns the number of documents that still match queries.
func (ix *Index) LiveDocs() int { return ix.docCount() - ix.numDeleted }

// Stats summarizes index size.
type Stats struct {
	// Docs is the document count, including tombstoned documents.
	Docs int
	// Deleted is the tombstone count awaiting a merge.
	Deleted int
	// Fields is the number of distinct indexed fields.
	Fields int
	// Terms is the total distinct (field, term) pairs.
	Terms int
	// Postings is the total posting count across all terms.
	Postings int
}

// Stats computes the index size summary by walking the term dictionaries
// (posting counts come from the TOC on a mapped index — no decode).
func (ix *Index) Stats() Stats {
	s := Stats{Docs: ix.docCount(), Deleted: ix.numDeleted, Fields: len(ix.fields)}
	for _, fi := range ix.fields {
		if fi.m != nil {
			s.Terms += len(fi.m.terms)
			for _, t := range fi.m.terms {
				s.Postings += t.n
			}
			continue
		}
		s.Terms += len(fi.postings)
		for _, pl := range fi.postings {
			s.Postings += len(pl)
		}
	}
	return s
}

// Doc returns the stored document for a docID. On a mapped index it
// inflates the document's stored chunk on first access (hit
// materialization is the trigger; pure scoring never lands here) and
// caches the decoded document — only documents actually served ever
// inflate, so the heap cost of stored fields tracks the working set,
// not the corpus.
func (ix *Index) Doc(id int) *Document {
	if m := ix.mapped; m != nil {
		if id < 0 || id >= m.numDocs {
			return nil
		}
		return m.storedDocAt(id)
	}
	if id < 0 || id >= len(ix.docs) {
		return nil
	}
	return ix.docs[id]
}

// eachDoc calls fn for every stored document want selects, in ID order —
// Doc over the whole ID space, except that a mapped index inflates each
// stored chunk once rather than once per document.
func (ix *Index) eachDoc(want func(id int) bool, fn func(id int, d *Document)) {
	if m := ix.mapped; m != nil {
		m.eachStoredDoc(want, fn)
		return
	}
	for id, d := range ix.docs {
		if want(id) {
			fn(id, d)
		}
	}
}

// FieldNames returns the indexed field names, sorted.
func (ix *Index) FieldNames() []string {
	out := make([]string, 0, len(ix.fields))
	for n := range ix.fields {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasField reports whether any document has indexed the named field.
// Query routers use it to decide if a "name:" prefix in user input refers
// to a real field or is just punctuation in a keyword ("2:1 goal").
func (ix *Index) HasField(name string) bool {
	_, ok := ix.fields[name]
	return ok
}

// Terms returns the sorted term dictionary of a field, for vocabulary
// scans such as spelling suggestion.
func (ix *Index) Terms(field string) []string {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	out := fi.termNames()
	sort.Strings(out)
	return out
}

// Postings returns the posting list of an analyzed term in a field. The
// term must already be in index form (lowercased, stemmed); use the
// analyzer to normalize raw text first. On a mapped index this decodes
// the term's blocks into fresh heap postings.
func (ix *Index) Postings(field, term string) []Posting {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	return fi.postingsOf(term)
}

// DocFreq returns the number of documents containing the term in the field.
func (ix *Index) DocFreq(field, term string) int {
	fi := ix.fields[field]
	if fi == nil {
		return 0
	}
	return fi.numPostings(term)
}

// IDF computes the classic Lucene inverse document frequency:
// 1 + ln(N / (df + 1)), over corpus-wide statistics when installed.
func (ix *Index) IDF(field, term string) float64 {
	df := ix.scoringDocFreq(field, term)
	return 1 + math.Log(float64(ix.scoringNumDocs())/float64(df+1))
}

// fieldNorm is Lucene's length normalization: 1/sqrt(tokens in field).
func (ix *Index) fieldNorm(field string, docID int) float64 {
	fi := ix.fields[field]
	if fi == nil {
		return 0
	}
	l := fi.lengthOf(docID)
	if l == 0 {
		return 0
	}
	return 1 / math.Sqrt(float64(l))
}

// termUpperBound returns an upper bound on the score any single document
// can earn from the (field, term) clause at the given query boost — the
// per-term cap MaxScore pruning compares against the top-k threshold.
// The bound evaluates the similarity at the term's best-case posting
// shape (max freq, min length, max boost, tracked in fieldIndex.caps
// since build time) under the same collection statistics real scoring
// uses, so it holds per shard even when corpus-wide statistics are
// installed. Similarities that do not implement UpperBoundSimilarity get
// +Inf, which disables pruning but keeps evaluation correct.
func (ix *Index) termUpperBound(field, term string, queryBoost float64) float64 {
	fi := ix.fields[field]
	if fi == nil {
		return 0
	}
	c, ok := fi.termCapOf(term)
	if !ok {
		return 0
	}
	ubs, ok := ix.sim.(UpperBoundSimilarity)
	if !ok {
		return math.Inf(1)
	}
	// A negative boost flips "evaluate at the best-case posting" into a
	// lower bound; no pruning rather than wrong pruning.
	if c.maxBoost < 0 || queryBoost < 0 {
		return math.Inf(1)
	}
	df := ix.scoringDocFreq(field, term)
	b := ubs.TermScoreBound(c.maxFreq, df, ix.scoringNumDocs(), c.minLen, ix.scoringAvgLen(field))
	return b * c.maxBoost * queryBoost * capSlack
}

// observe widens the cap to cover a posting with the given shape,
// reporting whether anything changed.
func (c *termCap) observe(freq, dlen int, boost float64) bool {
	changed := false
	if freq > c.maxFreq {
		c.maxFreq, changed = freq, true
	}
	if dlen < c.minLen {
		c.minLen, changed = dlen, true
	}
	if boost > c.maxBoost {
		c.maxBoost, changed = boost, true
	}
	return changed
}

// observeBlock keeps a term's per-block score-bound inputs current for the
// posting state just written. Blocks materialize only once a term outgrows
// a single block — a single-block term's only block bound is exactly its
// cap, so storing it again would double the metadata for the long tail of
// rare terms. On the first crossing the completed earlier block is
// backfilled from the postings. Like the cap, tracking is conservative: a
// document observed mid-growth (multi-valued field) only shrinks the
// recorded minLen, which loosens — never invalidates — the bound.
func (fi *fieldIndex) observeBlock(term string, pl []Posting, freq, dlen int, boost float64) {
	if len(pl) <= postingBlockSize {
		return
	}
	blks := fi.blocks[term]
	cur := (len(pl) - 1) / postingBlockSize
	for len(blks) < cur {
		s := len(blks) * postingBlockSize
		blks = append(blks, fi.exactCap(pl[s:s+postingBlockSize]))
	}
	if cur == len(blks) {
		blks = append(blks, termCap{maxFreq: freq, minLen: dlen, maxBoost: boost})
	} else {
		blks[cur].observe(freq, dlen, boost)
	}
	fi.blocks[term] = blks
}

// exactCap computes the exact score-bound inputs over a posting run — the
// load-time (and encode-time) counterpart of Add's incremental tracking,
// slightly tighter since the docLens it reads are final.
func (fi *fieldIndex) exactCap(ps []Posting) termCap {
	c := termCap{minLen: math.MaxInt}
	for i := range ps {
		p := &ps[i]
		if f := len(p.Positions); f > c.maxFreq {
			c.maxFreq = f
		}
		if l := fi.docLen[p.DocID]; l < c.minLen {
			c.minLen = l
		}
		if p.Boost > c.maxBoost {
			c.maxBoost = p.Boost
		}
	}
	return c
}

// rebuildCaps recomputes the per-term score-bound inputs from the posting
// lists — the codec's load-time equivalent of Add's incremental tracking.
func (fi *fieldIndex) rebuildCaps() {
	fi.caps = make(map[string]termCap, len(fi.postings))
	for t, pl := range fi.postings {
		fi.caps[t] = fi.exactCap(pl)
	}
}

// rebuildBlocks recomputes the per-block score-bound inputs for every
// multi-block term — the codec v1 load path, which has no block metadata
// on disk to read. Codec v2 snapshots carry the metadata instead.
func (fi *fieldIndex) rebuildBlocks() {
	fi.blocks = make(map[string][]termCap)
	for t, pl := range fi.postings {
		if len(pl) <= postingBlockSize {
			continue
		}
		blks := make([]termCap, 0, (len(pl)+postingBlockSize-1)/postingBlockSize)
		for s := 0; s < len(pl); s += postingBlockSize {
			e := s + postingBlockSize
			if e > len(pl) {
				e = len(pl)
			}
			blks = append(blks, fi.exactCap(pl[s:e]))
		}
		fi.blocks[t] = blks
	}
}
