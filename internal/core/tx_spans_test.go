package core

import (
	"math/rand"
	"testing"
)

// modelIntervals converts a covered-byte set into its maximal sorted
// disjoint runs — the brute-force reference for the interval list.
func modelIntervals(covered []bool) []span {
	var out []span
	for i := 0; i < len(covered); {
		if !covered[i] {
			i++
			continue
		}
		j := i
		for j < len(covered) && covered[j] {
			j++
		}
		out = append(out, span{off: uint64(i), n: uint64(j - i)})
		i = j
	}
	return out
}

func spansEqual(a, b []span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInsertSpanMatchesIntervalModel drives insertSpan with random spans
// and checks the list against a brute-force byte-set model after every
// insert: sorted, disjoint, adjacent runs merged.
func TestInsertSpanMatchesIntervalModel(t *testing.T) {
	const space = 512
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got []span
		model := make([]bool, space)
		for i := 0; i < 400; i++ {
			s := span{
				off: uint64(rng.Intn(space - 40)),
				n:   uint64(1 + rng.Intn(40)),
			}
			got = insertSpan(got, s)
			for b := s.off; b < s.off+s.n; b++ {
				model[b] = true
			}
			if want := modelIntervals(model); !spansEqual(got, want) {
				t.Fatalf("seed %d insert %d (%+v): list %+v, model %+v",
					seed, i, s, got, want)
			}
		}
	}
}

// TestInsertSpanSubtractCoveredAgree checks the pair of interval
// operations the snapshot path uses together: the segments subtractCovered
// returns must exactly tile the uncovered bytes of the query.
func TestInsertSpanSubtractCoveredAgree(t *testing.T) {
	const space = 512
	rng := rand.New(rand.NewSource(42))
	var covered []span
	model := make([]bool, space)
	for i := 0; i < 300; i++ {
		q := span{
			off: uint64(rng.Intn(space - 40)),
			n:   uint64(1 + rng.Intn(40)),
		}
		segs := subtractCovered(covered, q)
		seen := make([]bool, space)
		for _, seg := range segs {
			for b := seg.off; b < seg.off+seg.n; b++ {
				if b < q.off || b >= q.off+q.n {
					t.Fatalf("insert %d: segment %+v outside query %+v", i, seg, q)
				}
				if model[b] {
					t.Fatalf("insert %d: segment %+v covers already-covered byte %d", i, seg, b)
				}
				seen[b] = true
			}
			covered = insertSpan(covered, seg)
		}
		for b := q.off; b < q.off+q.n; b++ {
			if !model[b] && !seen[b] {
				t.Fatalf("insert %d: uncovered byte %d of query %+v missed", i, b, q)
			}
			model[b] = true
		}
		if want := modelIntervals(model); !spansEqual(covered, want) {
			t.Fatalf("insert %d: list %+v, model %+v", i, covered, want)
		}
	}
}

// TestSnapshotIntervalLogic exercises the covered-interval helpers
// directly.
func TestSnapshotIntervalLogic(t *testing.T) {
	var covered []span
	sub := func(off, n uint64) []span { return subtractCovered(covered, span{off, n}) }
	if got := sub(10, 5); len(got) != 1 || got[0] != (span{10, 5}) {
		t.Fatalf("empty covered: %+v", got)
	}
	covered = insertSpan(covered, span{10, 5}) // [10,15)
	if got := sub(10, 5); len(got) != 0 {
		t.Fatalf("fully covered: %+v", got)
	}
	if got := sub(8, 10); len(got) != 2 || got[0] != (span{8, 2}) || got[1] != (span{15, 3}) {
		t.Fatalf("straddling: %+v", got)
	}
	covered = insertSpan(covered, span{20, 5}) // [10,15) [20,25)
	if got := sub(12, 10); len(got) != 1 || got[0] != (span{15, 5}) {
		t.Fatalf("between: %+v", got)
	}
	covered = insertSpan(covered, span{15, 5}) // merge → [10,25)
	if len(covered) != 1 || covered[0] != (span{10, 15}) {
		t.Fatalf("merge failed: %+v", covered)
	}
	// Adjacent-left merge.
	covered = insertSpan(covered, span{5, 5})
	if len(covered) != 1 || covered[0] != (span{5, 20}) {
		t.Fatalf("left merge failed: %+v", covered)
	}
	// Disjoint insert stays sorted.
	covered = insertSpan(covered, span{100, 1})
	covered = insertSpan(covered, span{50, 1})
	if len(covered) != 3 || covered[1] != (span{50, 1}) {
		t.Fatalf("sorted insert failed: %+v", covered)
	}
}
