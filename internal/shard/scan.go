package shard

import (
	"container/heap"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/store"
)

// Pair is one key/value pair in a scan result.
type Pair struct {
	K uint64 `json:"k"`
	V uint64 `json:"v"`
}

// ScanChunkPairs is the most pairs a shard-level scan pulls per reader-
// gate hold; a page asks for less when it can use less. Chunking is what keeps long scans off the single-writer
// commit path: the gate is released and re-acquired every chunk, so a
// scan over millions of keys never excludes the worker's group commits
// for longer than one chunk's traversal.
const ScanChunkPairs = 256

// shardStream pulls one shard's in-range pairs in ascending chunks and
// feeds them to the merge: live pairs for Set.Scan, pairs as of the
// shard's pinned snapshot for SetSnapshot.Scan — the merge is identical
// either way.
type shardStream struct {
	w    *worker
	snap *store.Snapshot // nil: a live scan
	buf  []Pair
	pos  int
	next uint64 // next key to fetch from
	hi   uint64
	done bool // no further pairs in [next, hi] on this shard
}

// fill pulls the next chunk: on the gated read path when it can, so the
// reader gate is held for the chunk only and a long scan never starves
// the worker's group commits; through the worker queue's repairing read
// path otherwise. A chunk shorter than requested means the shard is
// exhausted in the range, as is a chunk ending at the top of the key
// space.
func (st *shardStream) fill(chunk int) error {
	w, reads := st.w, &st.w.scanReads
	if st.snap != nil {
		reads = &w.snapReads
	}
	var pairs []Pair
	served, err := w.gatedRead(reads, func(view store.View) (uint64, uint64, error) {
		var err error
		pairs, err = scanCollect(view, w.ordered, st.snap, st.next, st.hi, chunk)
		return 1, uint64(len(pairs)), err
	})
	if !served {
		r := w.do(request{op: opScan, snap: st.snap, k: st.next, v: st.hi, max: chunk})
		pairs, err = r.pairs, r.err
	}
	if err != nil {
		return err
	}
	st.buf, st.pos = pairs, 0
	if len(pairs) < chunk {
		st.done = true
	} else if last := pairs[len(pairs)-1].K; last >= st.hi || last == ^uint64(0) {
		st.done = true
	} else {
		st.next = last + 1
	}
	return nil
}

func (st *shardStream) head() Pair { return st.buf[st.pos] }

// scanHeap is a min-heap of non-empty shard streams keyed by head key.
type scanHeap []*shardStream

func (h scanHeap) Len() int           { return len(h) }
func (h scanHeap) Less(i, j int) bool { return h[i].head().K < h[j].head().K }
func (h scanHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *scanHeap) Push(x any)        { *h = append(*h, x.(*shardStream)) }
func (h *scanHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Scan returns up to limit pairs with keys in [lo, hi] in ascending key
// order, merged across every shard (keys are hash-partitioned, so each
// shard contributes an arbitrary but disjoint subset; a k-way heap merge
// of the per-shard ascending streams yields globally ordered,
// duplicate-free output). next is the key to pass as lo to continue a
// paginated scan, meaningful only when more is true.
//
// Each shard is consumed in chunks of at most ScanChunkPairs, sized to
// what the page can still use, so a short page reads little more than
// it returns: the concurrent fast path scans the shard's ReadView on this goroutine under the
// shard's reader gate, releasing it between chunks, and a gate-busy or
// faulting chunk falls back to that shard's worker queue. Consistency is
// therefore per chunk — every chunk observes a single committed image of
// its shard (commits are excluded while it runs), but a scan spanning
// several chunks or shards is not one committed image of the set: pairs
// committed behind the cursor are missed, pairs ahead of it appear.
// Every returned pair was committed at the moment its chunk read it.
// When the whole scan (or a backup) must observe exactly one state while
// writes proceed, open a pinned-generation snapshot first and page
// through SetSnapshot.Scan instead.
//
// A shutdown surfaces as ErrShuttingDown (errors.Is), matching Get.
func (s *Set) Scan(lo, hi uint64, limit int) (pairs []Pair, next uint64, more bool, err error) {
	return s.scan(nil, lo, hi, limit)
}

// scan runs the k-way heap merge over every shard's ascending stream —
// at snaps' pinned generations when snaps is set: the page assembly
// shared by live scans and snapshot scans. Every fill runs on the
// caller's goroutine and asks for no more than the page can use: the
// first fill about twice a shard's even share of the page, a refill no
// more than the page still lacks.
func (s *Set) scan(snaps []*store.Snapshot, lo, hi uint64, limit int) (pairs []Pair, next uint64, more bool, err error) {
	if limit <= 0 || lo > hi {
		return nil, 0, false, nil
	}
	streams := make([]*shardStream, len(s.workers))
	share := (limit-1)/len(streams) + 1 // ⌈limit/n⌉, without overflow
	first := min(ScanChunkPairs, limit, 2*min(share, ScanChunkPairs))
	for i, w := range s.workers {
		streams[i] = &shardStream{w: w, next: lo, hi: hi}
		if snaps != nil {
			streams[i].snap = snaps[i]
		}
		if err := streams[i].fill(first); err != nil {
			return nil, 0, false, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	h := make(scanHeap, 0, len(streams))
	for _, st := range streams {
		if len(st.buf) > 0 {
			h = append(h, st)
		}
	}
	heap.Init(&h)
	pairs = make([]Pair, 0, min(limit, 1024))
	pending := false // a stream drained unexhausted after the page filled
	for len(h) > 0 && len(pairs) < limit {
		st := h[0]
		pairs = append(pairs, st.head())
		st.pos++
		if st.pos == len(st.buf) && !st.done {
			if len(pairs) == limit {
				// The page is complete: prefetching another chunk just to
				// decide `more` would spend a gate hold — and, were it to
				// fail, discard the finished page. Report more
				// conservatively instead; if the shard's range happened to
				// end exactly at the chunk boundary, the follow-up call
				// returns an empty terminal page.
				pending = true
			} else if err := st.fill(min(ScanChunkPairs, limit-len(pairs))); err != nil {
				// Mid-page the error is authoritative: the page is
				// genuinely incomplete, so surface it rather than hand
				// back a truncated range that looks done.
				return nil, 0, false, fmt.Errorf("shard %d: %w", st.w.idx, err)
			}
		}
		if st.pos < len(st.buf) {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	if len(h) == 0 && !pending {
		return pairs, 0, false, nil
	}
	last := pairs[len(pairs)-1].K
	if last == ^uint64(0) {
		return pairs, 0, false, nil
	}
	return pairs, last + 1, true, nil
}
