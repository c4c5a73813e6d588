package index

// Segment merging for the LSM-shaped shard engine: many small immutable
// indexes (a base plus per-ingest-batch segments) are compacted into one,
// dropping tombstoned documents, WITHOUT re-analyzing any text. Postings
// are remapped and concatenated — sources are given in ascending global
// order and each source's posting lists are ascending locally, so the
// merged lists come out ascending by construction. The merged index is
// indistinguishable from a from-scratch Add of the surviving documents in
// the same order: same docID assignment, same posting shapes, same
// score-bound caps (rebuilt exactly), same statistics.

// MergeIndexes compacts sources (in order) into one new index, skipping
// tombstoned documents. Surviving documents are renumbered densely in
// source order; the returned remap slices (one per source, -1 for dropped
// documents) let the caller translate old docIDs to merged ones. Stored
// documents and position slices are shared with the sources, which must
// be treated as immutable afterwards. The merged index carries no corpus
// stats; the caller installs them.
//
// dead, when non-nil, supplies a per-source liveness snapshot (see
// DeletedMask) consulted INSTEAD of each source's own tombstone bits —
// the hook that lets a background merge run outside the engine lock
// while concurrent ingests keep tombstoning: the merge works against the
// snapshot, and the caller reconciles documents tombstoned mid-merge by
// re-deleting them on the merged index. A nil dead (or nil dead[i])
// reads the source's live bits, which requires the caller to hold off
// writers for the duration.
func MergeIndexes(sources []*Index, dead [][]bool) (*Index, [][]int) {
	out := New(nil)
	remaps := make([][]int, len(sources))
	if len(sources) == 0 {
		return out, remaps
	}
	out.analyzer = sources[0].analyzer
	out.sim = sources[0].sim
	out.exhaustive = sources[0].exhaustive

	for si, src := range sources {
		isDead := func(id int) bool { return src.numDeleted > 0 && src.deleted[id] }
		if dead != nil && dead[si] != nil {
			mask := dead[si]
			isDead = func(id int) bool { return mask[id] }
		}
		// A mapped source's stored region materializes chunk by chunk — the
		// merge output is a heap index that needs the documents regardless.
		remap := make([]int, src.docCount())
		for id := range remap {
			remap[id] = -1
		}
		src.eachDoc(func(id int) bool { return !isDead(id) }, func(id int, d *Document) {
			remap[id] = len(out.docs)
			out.docs = append(out.docs, d)
			out.deleted = append(out.deleted, false)
		})
		remaps[si] = remap

		for name, sfi := range src.fields {
			// A field carried only by tombstoned documents does not survive
			// the merge — exactly as a from-scratch build would not see it.
			live := false
			sfi.eachDocLen(func(id, _ int) { live = live || remap[id] >= 0 })
			if !live {
				continue
			}
			fi := out.fields[name]
			if fi == nil {
				fi = newFieldIndex()
				out.fields[name] = fi
			}
			sfi.eachDocLen(func(id, l int) {
				nid := remap[id]
				if nid < 0 {
					return
				}
				fi.docLen[nid] = l
				fi.sumLen += l
				fi.boost[nid] = sfi.boostOf(id)
			})
			// Mapped sources materialize one term at a time; memory stays
			// bounded by a posting list, never the whole field.
			for _, term := range sfi.termNames() {
				pl := sfi.postingsOf(term)
				kept := fi.postings[term]
				for i := range pl {
					nid := remap[pl[i].DocID]
					if nid < 0 {
						continue
					}
					kept = append(kept, Posting{DocID: nid, Positions: pl[i].Positions, Boost: pl[i].Boost})
				}
				if len(kept) > 0 {
					fi.postings[term] = kept
				}
			}
		}
	}
	for _, fi := range out.fields {
		fi.rebuildCaps()
		fi.rebuildBlocks()
	}
	return out, remaps
}
