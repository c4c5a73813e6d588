package index

// Stored-document fetch on the mapped read path: pooled chunk inflate,
// the sequential walk the merge uses, and the guarantee that neither a
// corrupt chunk nor concurrent decodes can leak state between documents.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// storedFixture is a three-chunk index (300 documents, 128 per chunk)
// opened both ways.
func storedFixture(t *testing.T) (heap, mapped *Index, raw, toc []byte) {
	t.Helper()
	vocab := strings.Fields("goal foul save corner pass shot")
	ix := buildMultiBlockIndex(t, rand.New(rand.NewSource(41)), 300, vocab, []string{"event", "narration"})
	return openMappedPair(t, ix)
}

// deflate flate-compresses payload.
func deflate(t *testing.T, payload []byte) []byte {
	t.Helper()
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(payload)
	zw.Close()
	return comp.Bytes()
}

// replaceChunk returns a copy of a mapped payload whose stored chunk c is
// swapped for the compressed bytes comp, length prefix rewritten. The
// chunk table follows every offset the TOC records, so the result still
// opens.
func replaceChunk(m *Index, c int, comp []byte) []byte {
	offs := m.mapped.chunkOffs
	out := append([]byte(nil), m.mapped.raw[:offs[c]]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(comp)))
	out = append(out, comp...)
	return append(out, m.mapped.raw[offs[c+1]:]...)
}

// inflateChunk returns stored chunk c's decompressed bytes.
func inflateChunk(t *testing.T, m *Index, c int) []byte {
	t.Helper()
	out, err := io.ReadAll(flate.NewReader(bytes.NewReader(m.mapped.chunk(c))))
	if err != nil {
		t.Fatalf("chunk %d does not inflate: %v", c, err)
	}
	return out
}

// TestMappedDocEveryPosition: Doc at every position of every chunk —
// first, middle, last, and the short final chunk — equals the heap
// decoder's document, and each decode caches exactly its own document.
func TestMappedDocEveryPosition(t *testing.T) {
	heap, mapped, _, _ := storedFixture(t)
	if got := len(mapped.mapped.chunkOffs) - 1; got != 3 {
		t.Fatalf("fixture spans %d chunks, want 3", got)
	}
	for d := heap.NumDocs() - 1; d >= 0; d-- {
		if got, want := mapped.Doc(d), heap.Doc(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("Doc(%d) diverged:\nmapped: %+v\nheap:   %+v", d, got, want)
		}
		if got, want := mapped.CachedDocs(), heap.NumDocs()-d; got != want {
			t.Fatalf("after Doc(%d): %d cached documents, want %d", d, got, want)
		}
	}
	if heap.CachedDocs() != 0 {
		t.Fatal("a heap index reports cached stored documents")
	}
}

// TestMappedMergeDocsEquivalence: the merge's sequential walk (each chunk
// inflated once) yields documents DeepEqual to a heap-source merge's,
// with tombstones skipped, and caches nothing on the source.
func TestMappedMergeDocsEquivalence(t *testing.T) {
	heap, mapped, _, _ := storedFixture(t)
	for d := 0; d < heap.NumDocs(); d += 5 {
		heap.Delete(d)
		mapped.Delete(d)
	}
	// A document served before the merge must not change what it gets.
	mapped.Doc(7)
	fromHeap, remapsH := MergeIndexes([]*Index{heap}, nil)
	fromMapped, remapsM := MergeIndexes([]*Index{mapped}, nil)
	if !reflect.DeepEqual(remapsH, remapsM) {
		t.Fatal("merge remaps diverged")
	}
	if !reflect.DeepEqual(fromHeap.docs, fromMapped.docs) {
		t.Fatal("merged stored documents diverged")
	}
	if got := mapped.CachedDocs(); got != 1 {
		t.Fatalf("merge left %d cached documents on its source, want 1", got)
	}
}

// TestMappedCorruptChunkDocs: a chunk that inflates but holds a truncated
// document list fails closed — documents before the damage decode,
// documents from it on are nil — identically through Doc and through the
// merge walk.
func TestMappedCorruptChunkDocs(t *testing.T) {
	heap, mapped, _, toc := storedFixture(t)
	chunk := inflateChunk(t, mapped, 1)
	// Keep chunk 1's first three documents and cut the fourth inside its
	// field count.
	r := byteReader{b: chunk}
	for k := 0; k < 3; k++ {
		if !skipStoredDoc(&r) {
			t.Fatal("fixture chunk does not parse")
		}
	}
	bad, err := OpenMapped(replaceChunk(mapped, 1, deflate(t, chunk[:r.pos+2])), toc, StandardAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	walked := map[int]*Document{}
	bad.eachDoc(func(int) bool { return true }, func(id int, d *Document) { walked[id] = d })
	for id := 0; id < heap.NumDocs(); id++ {
		want := heap.Doc(id)
		if id >= 128+3 && id < 256 {
			want = nil
		}
		if got := bad.Doc(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("Doc(%d) = %+v, want %+v", id, got, want)
		}
		if got := walked[id]; !reflect.DeepEqual(got, want) {
			t.Fatalf("walked doc %d = %+v, want %+v", id, got, want)
		}
	}
}

// TestMappedInflaterPoolNotPoisoned: decodes that fail — an undecodable
// flate stream, one that breaks off mid-chunk, a chunk whose documents
// are garbage — hand their inflater back to the pool; every later decode
// of a clean index must still produce exactly the heap documents.
func TestMappedInflaterPoolNotPoisoned(t *testing.T) {
	heap, mapped, raw, toc := storedFixture(t)
	// cleanDocs decodes every document of a freshly opened (uncached)
	// clean index, chunk 2 first, and requires each to equal the heap's.
	cleanDocs := func(label string) {
		t.Helper()
		clean, err := OpenMapped(raw, toc, StandardAnalyzer{})
		if err != nil {
			t.Fatal(err)
		}
		for id := heap.NumDocs() - 1; id >= 0; id-- {
			if got, want := clean.Doc(id), heap.Doc(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: clean Doc(%d) diverged:\ngot:  %+v\nwant: %+v", label, id, got, want)
			}
		}
	}
	offs := mapped.mapped.chunkOffs
	badStream := append([]byte(nil), raw...)
	for i := offs[0] + 8; i < offs[1]; i++ {
		badStream[i] = 0xff // reserved block type: an inflate error at once
	}
	// A stream cut short after more than a flate window of output: the
	// decompressor hands over garbage before it fails, which must not
	// survive into the next decode's buffer.
	noise := make([]byte, 256<<10)
	rand.New(rand.NewSource(7)).Read(noise)
	long := deflate(t, noise)
	cutStream := replaceChunk(mapped, 0, long[:len(long)/2])
	garbage := replaceChunk(mapped, 0, deflate(t, bytes.Repeat([]byte{0xff}, 4096)))
	for _, c := range []struct {
		name string
		img  []byte
		// dead: every chunk-0 document must fail to decode.
		dead bool
	}{
		{"undecodable stream", badStream, true},
		{"stream cut mid-chunk", cutStream, true},
		{"garbage documents", garbage, true},
	} {
		bad, err := OpenMapped(c.img, toc, StandardAnalyzer{})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 128; id++ {
			if d := bad.Doc(id); c.dead && d != nil {
				t.Fatalf("%s: served doc %d", c.name, id)
			}
		}
		cleanDocs(c.name + " after Doc")
		bad.eachDoc(func(int) bool { return true }, func(int, *Document) {})
		cleanDocs(c.name + " after the merge walk")
	}
}

// TestMappedDocConcurrent: many goroutines decode documents of the same
// chunk at once — on one shared index (racing to publish cache entries)
// and on private indexes over the same bytes (racing on pooled inflaters
// only). Run under -race; every document must equal the heap's.
func TestMappedDocConcurrent(t *testing.T) {
	heap, shared, raw, toc := storedFixture(t)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		own, err := OpenMapped(raw, toc, StandardAnalyzer{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, own *Index) {
			defer wg.Done()
			for k := 0; k < 128; k++ {
				id := (k*7 + w*13) % 128
				for _, ix := range []*Index{shared, own} {
					if got := ix.Doc(id); !reflect.DeepEqual(got, heap.Doc(id)) {
						errs <- "doc diverged under concurrent decode"
						return
					}
				}
			}
		}(w, own)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatal(<-errs)
	}
	if got := shared.CachedDocs(); got != 128 {
		t.Fatalf("shared index cached %d documents, want the 128 of chunk 0", got)
	}
}
