package mbuf

import (
	"testing"

	"github.com/pangolin-go/pangolin/internal/layout"
)

// TestClassesCoverEverySize: a backing's class holds it, wastes at most
// an eighth of the class, and classes grow with the size they serve.
func TestClassesCoverEverySize(t *testing.T) {
	prevC, prevWords := 0, 0
	for n := 1; n <= 8192; n++ {
		c, words, ok := class(n)
		switch {
		case !ok:
			t.Fatalf("%d words: not recycled", n)
		case words < n || (words-n)*8 > words:
			t.Fatalf("%d words: class of %d words", n, words)
		case c < prevC || (c == prevC && words != prevWords):
			t.Fatalf("%d words: class %d (%d words) after class %d (%d words)", n, c, words, prevC, prevWords)
		}
		if again, w, _ := class(words); again != c || w != words {
			t.Fatalf("a class size %d maps to class %d, not %d", words, again, c)
		}
		prevC, prevWords = c, words
	}
	if _, _, ok := class(8193); ok {
		t.Fatal("a backing over 64 KB is recycled")
	}
}

// TestReleaseRecyclesBuffersAndArena: after Release, Take of the same
// size class hands back the same buffer with fresh canaries and its
// class size as footprint, the arena carves its kept chunk again, and a
// buffer of the table's own (New) is not recycled.
func TestReleaseRecyclesBuffersAndArena(t *testing.T) {
	var c Cache
	tbl := c.Table()
	b := tbl.Take(layout.OID{Off: 64}, 1040, testCanary)
	own := New(layout.OID{Off: 4096}, 1040, testCanary)
	tbl.Insert(b)
	tbl.Insert(own)
	first := &tbl.Arena().Alloc(8)[0]
	b.MarkModified(16, 8, b.Image(), tbl.Arena())
	tbl.Release()
	if got := c.Table(); got != tbl {
		t.Fatal("the cache did not hand back the released table")
	}
	b2 := tbl.Take(layout.OID{Off: 128}, 1100, testCanary+1)
	if b2 != b {
		t.Fatal("Take of the same class allocated a new buffer")
	}
	if b2.Modified() || b2.OID.Off != 128 || b2.Size() != 1100 || b2.CheckCanaries() != nil {
		t.Fatalf("recycled buffer not reset: %+v", b2)
	}
	if b2.Footprint() != 144*8 {
		t.Fatalf("footprint %d, want the 144-word class", b2.Footprint())
	}
	if &tbl.Arena().Alloc(8)[0] != first {
		t.Fatal("the arena did not carve its kept chunk again")
	}
	if tbl.Take(layout.OID{Off: 4096}, 1040, testCanary) == own {
		t.Fatal("a buffer from New was recycled")
	}
}

// TestPoisonCatchesWritesAfterRelease: under the poison hook a released
// buffer and arena chunk read PoisonByte, and a write through a slice
// kept past Release panics at the next Take or carve.
func TestPoisonCatchesWritesAfterRelease(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	for _, what := range []string{"buffer", "arena"} {
		var c Cache
		tbl := c.Table()
		tbl.Release() // the arena's chunks are poisoned from the next transaction on
		tbl = c.Table()
		b := tbl.Take(layout.OID{Off: 64}, 100, testCanary)
		tbl.Insert(b)
		img := b.Image()
		old := tbl.Arena().Alloc(16)
		tbl.Release()
		for _, s := range [][]byte{img, old} {
			for i, v := range s {
				if v != PoisonByte {
					t.Fatalf("%s: byte %d reads %#x after Release", what, i, v)
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: a write after Release went unnoticed", what)
				}
			}()
			if what == "buffer" {
				img[3] = 0
				tbl.Take(layout.OID{Off: 64}, 100, testCanary)
			} else {
				old[3] = 0
				tbl.Arena().Alloc(16)
			}
		}()
	}
}
