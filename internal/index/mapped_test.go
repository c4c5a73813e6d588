package index

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// openMappedPair encodes ix with a TOC and opens the same bytes both ways:
// through the heap decoder and through the mapped reader. Every equivalence
// test in this file compares the two against each other and the oracle.
func openMappedPair(tb testing.TB, ix *Index, metaFields ...string) (heap, mapped *Index, raw, toc []byte) {
	tb.Helper()
	var buf bytes.Buffer
	toc, err := ix.EncodeWithTOC(&buf, metaFields...)
	if err != nil {
		tb.Fatal(err)
	}
	raw = buf.Bytes()
	heap, err = Decode(bytes.NewReader(raw), StandardAnalyzer{})
	if err != nil {
		tb.Fatal(err)
	}
	mapped, err = OpenMapped(raw, toc, StandardAnalyzer{})
	if err != nil {
		tb.Fatal(err)
	}
	if !mapped.Mapped() || heap.Mapped() {
		tb.Fatal("storage-mode flags inverted")
	}
	return heap, mapped, raw, toc
}

// TestMappedEquivalenceMultiBlock is the mapped-path oracle: the same
// random multi-block corpora and structured queries as the Block-Max
// suite, with the index served straight from codec-v2 bytes. Mapped
// Search must reproduce heap Search and the exhaustive path bit-for-bit
// — same documents, byte-identical scores, identical tie order — under
// both similarities, so lazy block decode provably changes nothing about
// ranking.
func TestMappedEquivalenceMultiBlock(t *testing.T) {
	vocab := strings.Fields("goal foul save corner pass shot keeper header")
	fields := []string{"event", "narration"}
	rng := rand.New(rand.NewSource(20260808))
	for round := 0; round < 4; round++ {
		ix := buildMultiBlockIndex(t, rng, 900+rng.Intn(400), vocab, fields)
		if round%2 == 1 {
			ix.SetSimilarity(BM25{})
		}
		heap, mapped, _, _ := openMappedPair(t, ix)
		if round%2 == 1 {
			heap.SetSimilarity(BM25{})
			mapped.SetSimilarity(BM25{})
		}
		for qi := 0; qi < 30; qi++ {
			q := randomQuery(rng, vocab, fields, 2)
			limit := []int{0, 1, 2, 5, 10, 100}[rng.Intn(6)]
			want := ix.ExhaustiveSearch(q, limit)
			if got := mapped.ExhaustiveSearch(q, limit); !hitsEqual(got, want) {
				t.Fatalf("round %d query %d (%#v) limit %d mapped exhaustive:\ngot:  %v\nwant: %v",
					round, qi, q, limit, got, want)
			}
			if got := heap.Search(q, limit); !hitsEqual(got, want) {
				t.Fatalf("round %d query %d (%#v) limit %d heap decode:\ngot:  %v\nwant: %v",
					round, qi, q, limit, got, want)
			}
			if got := mapped.Search(q, limit); !hitsEqual(got, want) {
				t.Fatalf("round %d query %d (%#v) limit %d mapped DAAT:\ngot:  %v\nwant: %v",
					round, qi, q, limit, got, want)
			}
		}
	}
}

// TestMappedEquivalenceWithTombstones covers the read path the LSM engine
// exercises on a mapped base segment: documents tombstoned after open must
// vanish from results and statistics exactly as on a heap index.
func TestMappedEquivalenceWithTombstones(t *testing.T) {
	vocab := strings.Fields("goal foul save corner pass shot keeper header")
	fields := []string{"event", "narration"}
	rng := rand.New(rand.NewSource(7))
	ix := buildMultiBlockIndex(t, rng, 700, vocab, fields)
	heap, mapped, _, _ := openMappedPair(t, ix)
	for d := 0; d < ix.NumDocs(); d += 3 {
		if heap.Delete(d) != mapped.Delete(d) {
			t.Fatalf("Delete(%d) disagreed between heap and mapped", d)
		}
	}
	if heap.LiveDocs() != mapped.LiveDocs() {
		t.Fatalf("LiveDocs %d != %d", heap.LiveDocs(), mapped.LiveDocs())
	}
	if hs, ms := heap.LocalStats(), mapped.LocalStats(); !reflect.DeepEqual(hs, ms) {
		t.Fatalf("tombstone-aware LocalStats diverged:\nheap:   %+v\nmapped: %+v", hs, ms)
	}
	for qi := 0; qi < 20; qi++ {
		q := randomQuery(rng, vocab, fields, 2)
		limit := []int{0, 1, 5, 10, 100}[rng.Intn(5)]
		want := heap.Search(q, limit)
		if got := mapped.Search(q, limit); !hitsEqual(got, want) {
			t.Fatalf("query %d (%#v) limit %d with tombstones:\ngot:  %v\nwant: %v",
				qi, q, limit, got, want)
		}
		if got := mapped.ExhaustiveSearch(q, limit); !hitsEqual(got, want) {
			t.Fatalf("query %d (%#v) limit %d mapped exhaustive with tombstones:\ngot:  %v\nwant: %v",
				qi, q, limit, got, want)
		}
	}
}

// TestMappedLocalStatsClean pins the O(vocabulary) load-time contract: a
// freshly opened mapped index must export the same statistics as the heap
// decode of the same bytes, answered from the TOC alone.
func TestMappedLocalStatsClean(t *testing.T) {
	vocab := strings.Fields("goal foul save corner pass shot keeper header")
	ix := buildMultiBlockIndex(t, rand.New(rand.NewSource(11)), 500, vocab, []string{"event", "narration"})
	heap, mapped, _, _ := openMappedPair(t, ix)
	if hs, ms := heap.LocalStats(), mapped.LocalStats(); !reflect.DeepEqual(hs, ms) {
		t.Fatalf("clean LocalStats diverged:\nheap:   %+v\nmapped: %+v", hs, ms)
	}
	if hs, ms := heap.Stats(), mapped.Stats(); hs != ms {
		t.Fatalf("Stats diverged: heap %+v, mapped %+v", hs, ms)
	}
	if mapped.docs != nil {
		t.Fatal("statistics export materialized the stored region")
	}
}

// TestMappedDocMetaAndLazyStored: identity metadata recorded in the TOC is
// served without touching the stored region; anything else falls back to
// Doc(), which inflates it once and returns documents identical to the
// heap decode's.
func TestMappedDocMetaAndLazyStored(t *testing.T) {
	ix := New(StandardAnalyzer{})
	for d := 0; d < 10; d++ {
		doc := new(Document)
		doc.Add("narration", strings.Repeat("goal ", d+1))
		doc.Fields = append(doc.Fields,
			Field{Name: "_gid", Text: string(rune('a' + d))},
			Field{Name: "color", Text: []string{"red", "blue"}[d%2]})
		ix.Add(doc)
	}
	heap, mapped, _, _ := openMappedPair(t, ix, "_gid")

	q := TermQuery{Field: "narration", Term: "goal"}
	if got, want := mapped.Search(q, 5), heap.Search(q, 5); !hitsEqual(got, want) {
		t.Fatalf("search diverged: %v vs %v", got, want)
	}
	for d := 0; d < 10; d++ {
		if got, want := mapped.DocMeta(d, "_gid"), string(rune('a'+d)); got != want {
			t.Fatalf("DocMeta(%d, _gid) = %q, want %q", d, got, want)
		}
	}
	if mapped.DocMeta(-1, "_gid") != "" || mapped.DocMeta(10, "_gid") != "" {
		t.Fatal("out-of-range DocMeta must be empty")
	}
	// Search and TOC-backed metadata must not have decoded any stored
	// document; documents never inflate into ix.docs on a mapped index.
	for d := range mapped.mapped.docCache {
		if mapped.mapped.docCache[d].Load() != nil {
			t.Fatalf("doc %d decoded before any Doc access", d)
		}
	}
	if mapped.docs != nil {
		t.Fatal("stored region materialized into ix.docs on a mapped index")
	}
	// A non-TOC field falls back to the stored document.
	if got := mapped.DocMeta(3, "color"); got != "blue" || got != heap.DocMeta(3, "color") {
		t.Fatalf("fallback DocMeta = %q", got)
	}
	if mapped.mapped.docCache[3].Load() == nil {
		t.Fatal("fallback DocMeta did not decode (and cache) its document")
	}
	if mapped.docs != nil {
		t.Fatal("mapped Doc access must decode per document, not inflate ix.docs")
	}
	for d := 0; d < 10; d++ {
		if got, want := mapped.Doc(d), heap.Doc(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("Doc(%d) diverged:\nmapped: %+v\nheap:   %+v", d, got, want)
		}
	}
}

// TestMappedEncodeIsRawCopy: re-encoding a mapped index must be a byte
// copy of the mapped region (the merger and snapshot writer rely on this
// being cheap and exact), and the v1 downgrade path must still work by
// decoding first.
func TestMappedEncodeIsRawCopy(t *testing.T) {
	vocab := strings.Fields("goal foul save corner")
	ix := buildMultiBlockIndex(t, rand.New(rand.NewSource(3)), 400, vocab, []string{"event", "narration"})
	heap, mapped, raw, toc := openMappedPair(t, ix)

	var re bytes.Buffer
	if err := mapped.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), raw) {
		t.Fatal("Encode on a mapped index is not a byte copy of the mapped region")
	}
	var re2 bytes.Buffer
	toc2, err := mapped.EncodeWithTOC(&re2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re2.Bytes(), raw) || !bytes.Equal(toc2, toc) {
		t.Fatal("EncodeWithTOC on a mapped index must return the original payload and TOC")
	}

	var v1 bytes.Buffer
	if err := mapped.EncodeV1(&v1); err != nil {
		t.Fatal(err)
	}
	down, err := Decode(bytes.NewReader(v1.Bytes()), StandardAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	q := TermQuery{Field: "event", Term: "goal"}
	if got, want := down.Search(q, 10), heap.Search(q, 10); !hitsEqual(got, want) {
		t.Fatalf("v1 downgrade search diverged: %v vs %v", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Add on a mapped index must panic")
		}
	}()
	doc := new(Document)
	doc.Add("event", "goal")
	mapped.Add(doc)
}

// TestMappedMergeEquivalence: merging a mapped source must produce the
// same index a merge of its heap twin does — the compaction path the LSM
// merger takes when the base segment is mapped.
func TestMappedMergeEquivalence(t *testing.T) {
	vocab := strings.Fields("goal foul save corner pass shot")
	rng := rand.New(rand.NewSource(5))
	ix := buildMultiBlockIndex(t, rng, 400, vocab, []string{"event", "narration"})
	heap, mapped, _, _ := openMappedPair(t, ix)
	for d := 0; d < 400; d += 7 {
		heap.Delete(d)
		mapped.Delete(d)
	}
	fromHeap, remapsH := MergeIndexes([]*Index{heap}, nil)
	fromMapped, remapsM := MergeIndexes([]*Index{mapped}, nil)
	if !reflect.DeepEqual(remapsH, remapsM) {
		t.Fatal("merge remaps diverged")
	}
	if fromHeap.NumDocs() != fromMapped.NumDocs() {
		t.Fatalf("merged doc counts diverged: %d vs %d", fromHeap.NumDocs(), fromMapped.NumDocs())
	}
	for qi := 0; qi < 15; qi++ {
		q := randomQuery(rng, vocab, []string{"event", "narration"}, 2)
		want := fromHeap.Search(q, 10)
		if got := fromMapped.Search(q, 10); !hitsEqual(got, want) {
			t.Fatalf("merged search diverged on %#v:\ngot:  %v\nwant: %v", q, got, want)
		}
	}
	if !reflect.DeepEqual(fromHeap.LocalStats(), fromMapped.LocalStats()) {
		t.Fatal("merged statistics diverged")
	}
}

// TestOpenMappedRejects covers the structured error surface: v1 payloads
// and absent TOCs signal ErrNoTOC (fall back to the heap decoder), while
// mismatched or trailing TOC bytes are hard errors.
func TestOpenMappedRejects(t *testing.T) {
	ix := New(StandardAnalyzer{})
	doc := new(Document)
	doc.Add("f", "goal goal save")
	ix.Add(doc)
	var buf bytes.Buffer
	toc, err := ix.EncodeWithTOC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := OpenMapped(raw, nil, nil); err != ErrNoTOC {
		t.Fatalf("empty TOC: got %v, want ErrNoTOC", err)
	}
	var v1 bytes.Buffer
	if err := ix.EncodeV1(&v1); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(v1.Bytes(), toc, nil); err != ErrNoTOC {
		t.Fatalf("v1 payload: got %v, want ErrNoTOC", err)
	}
	if _, err := OpenMapped(raw[:len(raw)-1], toc, nil); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := OpenMapped(raw, toc[:len(toc)-1], nil); err == nil {
		t.Fatal("truncated TOC accepted")
	}
	if _, err := OpenMapped(raw, append(append([]byte(nil), toc...), 0), nil); err == nil {
		t.Fatal("trailing TOC bytes accepted")
	}
}

// TestMappedCorruptionFailsClosed flips every byte of the posting region
// in turn (coarsely) and asserts the worst outcome is an open error or
// wrong results — never a panic, never an out-of-bounds read. The shard
// envelope's checksums make these images unreachable in practice; this
// pins the defence-in-depth contract.
func TestMappedCorruptionFailsClosed(t *testing.T) {
	vocab := strings.Fields("goal foul save corner")
	ix := buildMultiBlockIndex(t, rand.New(rand.NewSource(13)), 300, vocab, []string{"event"})
	var buf bytes.Buffer
	toc, err := ix.EncodeWithTOC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	clean, err := OpenMapped(raw, toc, StandardAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	// probe serves everything it can from one damaged image. allDocs asks
	// for every document, so the skip path runs at every chunk position;
	// a flip before the stored region leaves the documents intact, and
	// one Doc per chunk suffices there.
	probe := func(raw, toc []byte, allDocs bool) {
		m, err := OpenMapped(raw, toc, StandardAnalyzer{})
		if err != nil {
			return
		}
		for _, q := range []Query{
			TermQuery{Field: "event", Term: "goal"},
			PhraseQuery{Field: "event", Terms: []string{"goal", "save"}},
			BooleanQuery{Must: []Query{TermQuery{Field: "event", Term: "foul"}}},
		} {
			m.Search(q, 10)
			m.ExhaustiveSearch(q, 10)
		}
		m.LocalStats()
		for d := 0; d < m.NumDocs(); d++ {
			if allDocs || d%storedChunkDocs == 0 {
				m.Doc(d)
			}
		}
		m.eachDoc(func(int) bool { return true }, func(int, *Document) {})
		m.Stats()
	}
	for off := 0; off < len(raw); off += 13 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x41
		probe(mut, toc, off >= clean.mapped.storedOff)
	}
	for off := 0; off < len(toc); off += 7 {
		mut := append([]byte(nil), toc...)
		mut[off] ^= 0x41
		probe(raw, mut, true)
	}
}

// FuzzOpenMapped hammers the mapped reader with arbitrary payload/TOC
// pairs: whatever the bytes, opening and then searching must not panic.
func FuzzOpenMapped(f *testing.F) {
	ix := New(StandardAnalyzer{})
	for d := 0; d < 200; d++ {
		doc := new(Document)
		doc.Add("f", strings.Repeat("goal ", d%5+1)+"save")
		doc.Fields = append(doc.Fields, Field{Name: "_gid", Text: "g"})
		ix.Add(doc)
	}
	var buf bytes.Buffer
	toc, err := ix.EncodeWithTOC(&buf, "_gid")
	if err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw, toc)
	f.Add(raw[:len(raw)/2], toc)
	f.Add(raw, toc[:len(toc)/2])
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped, toc)
	f.Add([]byte("SIDX"), []byte("STOC"))

	f.Fuzz(func(t *testing.T, raw, toc []byte) {
		m, err := OpenMapped(raw, toc, StandardAnalyzer{})
		if err != nil {
			return
		}
		for _, q := range []Query{
			TermQuery{Field: "f", Term: "goal"},
			PhraseQuery{Field: "f", Terms: []string{"goal", "save"}},
			FuzzyQuery{Field: "f", Term: "goap"},
		} {
			m.Search(q, 5)
			m.ExhaustiveSearch(q, 5)
		}
		m.LocalStats()
		m.DocMeta(0, "_gid")
		// Every document, so the skip path runs at every chunk position
		// — bounded, so a header claiming 2^28 documents cannot stall
		// the run.
		for d := 0; d < min(m.NumDocs(), 1024); d++ {
			m.Doc(d)
		}
		m.eachDoc(func(d int) bool { return d < 1024 }, func(int, *Document) {})
	})
}
