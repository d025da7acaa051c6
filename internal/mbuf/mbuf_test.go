package mbuf

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pangolin-go/pangolin/internal/layout"
)

const testCanary = 0xDEADBEEFCAFEF00D

func TestImageSizing(t *testing.T) {
	for _, size := range []uint64{16, 17, 64, 100, 4096} {
		b := New(layout.OID{Off: 100}, size, testCanary)
		if uint64(len(b.Image())) != size {
			t.Fatalf("size %d: image %d", size, len(b.Image()))
		}
		if uint64(len(b.UserData())) != size-layout.ObjHeaderSize {
			t.Fatalf("size %d: user %d", size, len(b.UserData()))
		}
		if b.Footprint() < size+16 {
			t.Fatalf("footprint %d too small for %d + canaries", b.Footprint(), size)
		}
		if err := b.CheckCanaries(); err != nil {
			t.Fatalf("fresh buffer canary: %v", err)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	b := New(layout.OID{Off: 64}, 128, testCanary)
	h := layout.ObjHeader{Size: 128, Type: 3, Csum: 0x1234}
	b.SetHeader(h)
	if got := b.Header(); got != h {
		t.Fatalf("header %+v != %+v", got, h)
	}
}

func TestTailCanaryDetectsOverrun(t *testing.T) {
	b := New(layout.OID{Off: 640}, 100, testCanary)
	img := b.Image()
	// Overrun: write past the image into the canary word. The backing
	// slice deliberately makes this physically possible, as a buggy C
	// program would through a casted pointer.
	over := asBytes(b.backing[1:])
	over[((100+7)/8)*8] = 0xFF // first byte past the padded image
	_ = img
	err := b.CheckCanaries()
	var ce *CanaryError
	if !errors.As(err, &ce) {
		t.Fatalf("overrun not detected: %v", err)
	}
	if !ce.Tail {
		t.Fatal("overrun misreported as underrun")
	}
}

func TestHeadCanaryDetectsUnderrun(t *testing.T) {
	b := New(layout.OID{Off: 640}, 100, testCanary)
	b.backing[0] ^= 1
	err := b.CheckCanaries()
	var ce *CanaryError
	if !errors.As(err, &ce) || ce.Tail {
		t.Fatalf("underrun not detected correctly: %v", err)
	}
}

func TestMarkModifiedCoalescing(t *testing.T) {
	var a Arena
	b := New(layout.OID{Off: 64}, 200, testCanary)
	b.MarkModified(10, 10, b.Image(), &a) // [10,20)
	b.MarkModified(30, 5, b.Image(), &a)  // [30,35)
	b.MarkModified(18, 12, b.Image(), &a) // bridges to [10,35)? overlaps first, touches second
	rs := b.Ranges()
	if len(rs) != 1 || rs[0].Off != 10 || rs[0].Len != 25 {
		t.Fatalf("coalesced ranges: %+v", rs)
	}
	b.MarkModified(100, 1, b.Image(), &a)
	if len(b.Ranges()) != 2 {
		t.Fatalf("disjoint range merged: %+v", b.Ranges())
	}
	// Adjacent ranges coalesce.
	b.MarkModified(101, 4, b.Image(), &a)
	rs = b.Ranges()
	if len(rs) != 2 || rs[1].Len != 5 {
		t.Fatalf("adjacent not coalesced: %+v", rs)
	}
}

func TestMarkModifiedZeroLen(t *testing.T) {
	var a Arena
	b := New(layout.OID{Off: 64}, 100, testCanary)
	b.MarkModified(50, 0, b.Image(), &a)
	if b.Modified() {
		t.Fatal("zero-length range marked")
	}
}

func TestMarkModifiedOutOfRangePanics(t *testing.T) {
	var a Arena
	b := New(layout.OID{Off: 64}, 100, testCanary)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.MarkModified(90, 20, b.Image(), &a)
}

func TestMarkAllModified(t *testing.T) {
	var a Arena
	b := New(layout.OID{Off: 64}, 333, testCanary)
	b.MarkModified(5, 5, b.Image(), &a)
	b.MarkAllModified()
	rs := b.Ranges()
	if len(rs) != 1 || rs[0].Off != 0 || rs[0].Len != 333 {
		t.Fatalf("ranges: %+v", rs)
	}
}

// Property: after any sequence of MarkModified calls, ranges are sorted,
// non-overlapping, and cover exactly the union of the marked bytes, and
// each range's first image holds its bytes as they were before the first
// declaration that covered them, though every declaration is followed by
// a write (declare-then-write).
func TestCoalesceCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 512
		b := New(layout.OID{Off: 64}, size, testCanary)
		var a Arena
		img := b.Image()
		for j := range img {
			img[j] = byte(j)
		}
		model := make([]bool, size)
		for i := 0; i < 20; i++ {
			off := uint64(rng.Intn(size))
			n := uint64(rng.Intn(size - int(off)))
			if i%2 == 0 {
				n = min(n, 8) // small ranges too, so some stay disjoint
			}
			var fresh uint64
			for j := off; j < off+n; j++ {
				if !model[j] {
					fresh++
				}
				model[j] = true
			}
			if added := b.MarkModified(off, n, b.Image(), &a); added != fresh {
				return false // must report exactly the newly marked bytes
			}
			for j := off; j < off+n; j++ {
				img[j] = ^byte(j)
			}
		}
		got := make([]bool, size)
		var prevEnd uint64
		for i, r := range b.Ranges() {
			if i > 0 && r.Off <= prevEnd {
				return false // overlap or touching (should have merged)
			}
			prevEnd = r.Off + r.Len
			if uint64(len(r.Old)) != r.Len {
				return false
			}
			for j := r.Off; j < r.Off+r.Len; j++ {
				got[j] = true
				if r.Old[j-r.Off] != byte(j) {
					return false // a first image taken after a write
				}
			}
		}
		for i := range model {
			if model[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tbl := NewTable()
	o1 := layout.OID{Pool: 1, Off: 100}
	o2 := layout.OID{Pool: 1, Off: 200}
	b1 := New(o1, 64, testCanary)
	b2 := New(o2, 128, testCanary)
	tbl.Insert(b1)
	tbl.Insert(b2)
	if got, ok := tbl.Lookup(o1); !ok || got != b1 {
		t.Fatal("lookup o1 failed")
	}
	if tbl.Len() != 2 {
		t.Fatalf("len %d", tbl.Len())
	}
	if tbl.Bytes() != b1.Footprint()+b2.Footprint() {
		t.Fatalf("bytes %d", tbl.Bytes())
	}
	if all := tbl.All(); all[0] != b1 || all[1] != b2 {
		t.Fatal("order not preserved")
	}
	tbl.Remove(o1)
	if _, ok := tbl.Lookup(o1); ok {
		t.Fatal("removed buffer still present")
	}
	if tbl.Bytes() != b2.Footprint() {
		t.Fatalf("bytes after remove %d", tbl.Bytes())
	}
	tbl.Remove(layout.OID{Off: 999}) // no-op
	if tbl.Len() != 1 {
		t.Fatal("phantom remove changed table")
	}
}

// Removal is O(1) and lazy: whatever is removed, All still lists the
// survivors in open order, and removing after a compaction still works.
func TestTableRemoveKeepsOpenOrder(t *testing.T) {
	tbl := NewTable()
	var bufs []*Buf
	for i := 0; i < 10; i++ {
		b := New(layout.OID{Pool: 1, Off: uint64(100 + i)}, 32, testCanary)
		bufs = append(bufs, b)
		tbl.Insert(b)
	}
	check := func(want ...int) {
		t.Helper()
		all := tbl.All()
		if len(all) != len(want) || tbl.Len() != len(want) {
			t.Fatalf("All has %d buffers, Len %d, want %d", len(all), tbl.Len(), len(want))
		}
		for i, w := range want {
			if all[i] != bufs[w] {
				t.Fatalf("position %d holds buffer %#x, want %#x", i, all[i].OID.Off, bufs[w].OID.Off)
			}
		}
	}
	for _, i := range []int{0, 4, 9, 5} {
		tbl.Remove(bufs[i].OID)
	}
	check(1, 2, 3, 6, 7, 8)
	tbl.Remove(bufs[6].OID) // positions were renumbered by the compaction
	tbl.Remove(bufs[1].OID)
	extra := New(layout.OID{Pool: 1, Off: 500}, 32, testCanary)
	bufs = append(bufs, extra)
	tbl.Insert(extra)
	check(2, 3, 7, 8, 10)
}
